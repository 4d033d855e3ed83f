"""Golden outputs: small CLI pipelines must write byte-identical files.

Each pipeline runs through ``gwish.cli.main`` with fixed seeds and the
SHA-256 of every file it writes is compared with a pinned value.  A
refactor that claims to leave behaviour unchanged must keep these hashes;
a change that alters outputs on purpose re-records them and says why.

The floating-point outputs depend on numpy/BLAS rounding, so the hashes
are tied to the platform they were recorded on (CPython 3, numpy 2.4,
OpenBLAS, x86-64).  On a mismatch the assertion prints the observed
hashes, which is how they are re-recorded.
"""

import hashlib

import pytest

from gwish.cli import main


def run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


def hashes(root):
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def select_pipeline(tmp):
    run("gen-data", "--kind", "ar2", "--p", 12, "--n", 60, "--seed", 3,
        "--out", tmp / "data")
    run("mcmc", "--data", tmp / "data", "--kernel", "uniform", "--init", "threshold",
        "--burn-in", 400, "--iterations", 600, "--seed", 3, "--out", tmp / "chain")


def ratio_pipeline(tmp):
    for case in (2, 3):
        run("ratio-experiment", "--case", case, "--p-list", "20,60", "--n", 60,
            "--seed", 5, "--out", tmp / f"case{case}")


def mode_estimate_pipeline(tmp):
    run("gen-data", "--kind", "ar1", "--p", 10, "--n", 50, "--seed", 4,
        "--out", tmp / "data")
    run("search", "--data", tmp / "data", "--search-iters", 5, "--seed", 4,
        "--out", tmp / "mode")
    run("estimate", "--data", tmp / "data", "--estimator", "l1-stein",
        "--graph", tmp / "mode" / "mode_graph.edges", "--mc-draws", 30,
        "--seed", 4, "--out", tmp / "est")


def precision_pipeline(tmp):
    run("gen-data", "--kind", "ar2", "--p", 10, "--n", 40, "--seed", 6,
        "--out", tmp / "data")
    run("estimate", "--data", tmp / "data", "--estimator", "l2",
        "--graph", tmp / "data" / "graph0.edges", "--seed", 6, "--out", tmp / "l2")
    # run_chain with sample_precision: a draw every third kept state
    run("estimate", "--data", tmp / "data", "--estimator", "mcmc",
        "--kernel", "uniform", "--burn-in", 100, "--iterations", 300,
        "--thin", 3, "--seed", 6, "--out", tmp / "mcmc")


def exact_pipeline(tmp):
    run("gen-data", "--kind", "ar2", "--p", 7, "--n", 40, "--seed", 8,
        "--out", tmp / "data")
    run("mcmc", "--data", tmp / "data", "--kernel", "exact", "--sample-precision",
        "--thin", 5, "--burn-in", 100, "--iterations", 300, "--seed", 8,
        "--out", tmp / "chain")


def p4_oracle_pipeline(tmp):
    run("gen-data", "--kind", "ar1", "--p", 4, "--n", 30, "--seed", 9,
        "--out", tmp / "data")
    for kernel in ("exact", "uniform"):
        run("mcmc", "--data", tmp / "data", "--kernel", kernel, "--p4-oracle",
            "--burn-in", 100, "--iterations", 500, "--seed", 9,
            "--out", tmp / kernel)


def small_n_pipeline(tmp):
    # n = 3: every move or candidate that makes a clique of 4 leaves the support
    run("gen-data", "--kind", "ar2", "--p", 12, "--n", 3, "--seed", 10,
        "--out", tmp / "data")
    run("search", "--data", tmp / "data", "--r-max", 4, "--search-iters", 5,
        "--seed", 10, "--out", tmp / "mode")
    run("mcmc", "--data", tmp / "data", "--init", "threshold",
        "--burn-in", 100, "--iterations", 300, "--seed", 10, "--out", tmp / "chain")


GOLDEN = {
    "select": (select_pipeline, {
        "chain/best_graph.edges":
            "7679dc41a7fcd4a5856151014e0bbbef81170042597cb979752bf38ec83c9b83",
        "chain/inclusion.csv":
            "35b2d210892ae60ebdf33ad104aa1c82a8ad5e7b86570eae566193c50f279f4f",
        "chain/median_graph.edges":
            "7679dc41a7fcd4a5856151014e0bbbef81170042597cb979752bf38ec83c9b83",
        "chain/meta.json":
            "bf1d6a6d07057490f1dfcffb319a86418907148214112aa7c339045a653c6fcf",
        "chain/trace.csv":
            "32580fdd680ac74005c09a9205c87304b81af386cbe952249bf90c30f04e9e1f",
        "data/X.csv":
            "47e2fbda32c556f669dc80a6827ee599d561d0cff0627e3e326e7fdb25ec2ffe",
        "data/graph0.edges":
            "99c6ce6d132e0435381d61a5cd21d8953118c110e05c3e43b0ba511cfd4d13e7",
        "data/meta.json":
            "cccfc04690ac1f3d657b61158660aac01e7938c1d9bb0e65d443be27bb0f6367",
        "data/omega0.csv":
            "3cd432471b5fce9f82fda6121cc2f9c6006effaab80464082c4caff11ac5410f",
    }),
    "ratio": (ratio_pipeline, {
        "case2/meta.json":
            "13d5d81b5a75bafb233a155a9fdcbe5900147b06f46166bfd84d6c572d509347",
        "case2/ratio.csv":
            "5106d68a96a69c5fe978a41b9dde2992dd2fbf21c39d2cb889494132133e4a69",
        "case3/meta.json":
            "a11ccb6beff38a21162c1d43622366343d4678dd0726b0484bbc4643b9e6ca0f",
        "case3/ratio.csv":
            "9f9ac9897fc42c189ba7b17f533fa19509e1e44a3eee5204a0941fb6df51a661",
    }),
    "mode_estimate": (mode_estimate_pipeline, {
        "data/X.csv":
            "292636ad3cdf65ee5f9f79e6b891a21c4cbabcf56104d5ae88edbefbcd4b12df",
        "data/graph0.edges":
            "401d108514baebeaaf4f3fffedb2bc9cb694b32487645900eea1ea92a0a53f85",
        "data/meta.json":
            "ca9ba03467961ba796774cd32ba8c34b95cd18153ff37f846d5423c7522d5b70",
        "data/omega0.csv":
            "7eef329e33d1cca45893be2b9f777b850a6701815abc24e3a8465b510efca4c2",
        "est/meta.json":
            "9a551f5e994e44b12ae228cd43357cc8b735d4c6224fd7fbf5a7c323d087d570",
        "est/omega_hat.csv":
            "8cf8bd38169adc24651fe106c483347e70740c5881fe4a9976c25eb069d8c54c",
        "mode/meta.json":
            "ead0cb001116430717ca74ad76b2b5d58497a5afec4b754ebac7de8bf97128ca",
        "mode/mode.json":
            "1b4c000e2edb86be13387490bab080571020163ba9369586bb5afff64f94027d",
        "mode/mode_graph.edges":
            "a1eb4b3de130b510dbe82e5ce52e3713858edcb0d908c58fa9aef68ecba12ddb",
    }),
    "precision": (precision_pipeline, {
        "data/X.csv":
            "adf9bbc7ad2709720c299e2092b572c1a4ae662315f22ffc8681e8dffac63f47",
        "data/graph0.edges":
            "b1103719e56821ddee78cfd05c3d6ce823358eeb3fc9b00a1d8f9e8ff53bb7d6",
        "data/meta.json":
            "1040a84c292a979b648f253052b701764afee1520ededcc0d1e4ee17ecff5194",
        "data/omega0.csv":
            "16ae3cbc08488386404e5d227d8fd45f0f633e9371de7015283831963b604400",
        "l2/meta.json":
            "bcece7043b030d2c47f98a2e9f120e5b009b36caaf0db87f0aed3eccf14f0e1c",
        "l2/omega_hat.csv":
            "daa0c28c7c30da1f9e20b2d2bcc5091aa6b2746233e06558162304f99c3b36c9",
        "mcmc/meta.json":
            "4d797885a27a59ad19c58e81629e548ec06d8b183e8ea4274f46f300c25f424f",
        "mcmc/omega_hat.csv":
            "c9b671bd653fff23bfbc2c86408f9ae6cbca621736891a298d13a9788eb1f356",
    }),
    "exact": (exact_pipeline, {
        "chain/best_graph.edges":
            "30f86b81a6db01a60a423996194b09e73a3eee239f3c623b4d6d6085f8ea7c1c",
        "chain/inclusion.csv":
            "71df22b5a9acbd75e293a8c8666953c48f4394d6f002581686e0d671a6d8a7a6",
        "chain/median_graph.edges":
            "30f86b81a6db01a60a423996194b09e73a3eee239f3c623b4d6d6085f8ea7c1c",
        "chain/meta.json":
            "2873cad33e32e6a7b543706e46b4d71fa8553474df31c53f1b603a06382f6fe1",
        "chain/omega_mcmc.csv":
            "505141b293e329ebe8a650137e43c6294c44fadb4e78d9d7f9abaf8745a9aaa8",
        "chain/trace.csv":
            "b0fdf4106d550c0426535df35d9e5705a7d96fdd945e4ef45607dbfc49391b83",
        "data/X.csv":
            "b433779bdeccbb88edb1371a29d30e2f0094dee1e31d52cc24265b451c219e51",
        "data/graph0.edges":
            "a011123934ddae831a5edc1502064284ba0c98004a009f015ef31e1b38ed8768",
        "data/meta.json":
            "ee4f00defc5ff75ccb707f8df68692447770c379b8d7888106bee528968f8b57",
        "data/omega0.csv":
            "26bdffaf13616a8913b8fe359ac07e2411c4391f30043cfdfa7807018431b712",
    }),
    "p4_oracle": (p4_oracle_pipeline, {
        "data/X.csv":
            "dd61f908eb5bc62f802c9761e8582653e3d6a28a5565235a3ac741bded5004d7",
        "data/graph0.edges":
            "75ab8c826645254685be1799dfe66a55763cd47ed8767912005d652d61e7c413",
        "data/meta.json":
            "27241a0cb3812bf8080ca828037675cf877bb8daa048855e58e1205db62cd8ae",
        "data/omega0.csv":
            "d1057adbf0259ffd73722d9dcca1015e3fa1677ea2d0c0ae9722a9c06c8e2708",
        "exact/best_graph.edges":
            "ebf0da8fdb740f4dc1033b404b9b6e46a2777bf45d37e9fa6fdb9d1af2f8dc2c",
        "exact/inclusion.csv":
            "b98ccff6d808e34c5b7ed6221435689d07ec9e55b39b616105efea10b37338c2",
        "exact/median_graph.edges":
            "ebf0da8fdb740f4dc1033b404b9b6e46a2777bf45d37e9fa6fdb9d1af2f8dc2c",
        "exact/meta.json":
            "0612ab10771b70a5fdf0c9872da36296a37c87c51e75cfe56c4ba39522d6a4f3",
        "exact/trace.csv":
            "a2bc7bee0e676a76bf54aca8252c7cb6502abc212d7902d8abe25e68de3f31ef",
        "uniform/best_graph.edges":
            "ebf0da8fdb740f4dc1033b404b9b6e46a2777bf45d37e9fa6fdb9d1af2f8dc2c",
        "uniform/inclusion.csv":
            "2ca5e152b265c55234fb458354a31dce0f4cefc1689d109d4c766793765a2713",
        "uniform/median_graph.edges":
            "ebf0da8fdb740f4dc1033b404b9b6e46a2777bf45d37e9fa6fdb9d1af2f8dc2c",
        "uniform/meta.json":
            "3e0bf4ffceb2d0db505229d0c347bcd58ace8edb936f66c957fce2f6bc208a1c",
        "uniform/trace.csv":
            "acd8cf56ba42ad0803da97e7f2e28fa7faddf04be0b7fe509ba46d137078f3b8",
    }),
    "small_n": (small_n_pipeline, {
        "chain/best_graph.edges":
            "69edabcd32c9c33726fcf6eece25443c2af1693768f53abdbce1e1256544af59",
        "chain/inclusion.csv":
            "20be8e4289f0a6738bc587c9e850986598ed8dce2837c2d66024b2b95ccdd3db",
        "chain/median_graph.edges":
            "3d4b279e14f183ba4b043e08939cadd7836f0df02b283b8787337846c6108823",
        "chain/meta.json":
            "dfe72ee107e105c3eea35ede558f172f0121056c190926c529a6be5aafb1a64e",
        "chain/trace.csv":
            "9ccd5a741c5225b06f1ad26d0a2ea68d835288e4cc26fdd897c72c3036b03353",
        "data/X.csv":
            "8f9f18b700b3ca5a529a0641ca4f1fc7ee9847bd552814fd0966a5a7dc7c5496",
        "data/graph0.edges":
            "99c6ce6d132e0435381d61a5cd21d8953118c110e05c3e43b0ba511cfd4d13e7",
        "data/meta.json":
            "71a53262ec42af1dfec67d1bb05fe740062f231442b458db70f585c828459cb9",
        "data/omega0.csv":
            "3cd432471b5fce9f82fda6121cc2f9c6006effaab80464082c4caff11ac5410f",
        "mode/meta.json":
            "4856ff3704cc1660b291e14f9cafd59e259ca47a7bbb0862ab30a0dfe0831bd4",
        "mode/mode.json":
            "239278bf79ed368387babd19cad35a5bcc07bde27d51511a0bb4bfb4c40288b9",
        "mode/mode_graph.edges":
            "69edabcd32c9c33726fcf6eece25443c2af1693768f53abdbce1e1256544af59",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(name, tmp_path):
    pipeline, expected = GOLDEN[name]
    pipeline(tmp_path)
    assert hashes(tmp_path) == expected
