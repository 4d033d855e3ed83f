"""Golden outputs: small CLI pipelines must write byte-identical files.

Each pipeline runs through ``gwish.cli.main`` with fixed seeds and the
SHA-256 of every file it writes is compared with a pinned value.  A
refactor that claims to leave behaviour unchanged must keep these hashes;
a change that alters outputs on purpose re-records them and says why.

The floating-point outputs depend only on the rounding of numpy's LAPACK
and BLAS (gwish calls no scipy routine, and ``math.lgamma`` is CPython's
own), so the hashes are tied to the platform they were recorded on
(CPython 3, numpy 2.4 with its bundled OpenBLAS, x86-64).  On a mismatch the assertion prints the observed
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
    for case in (1, 2, 3, 4):
        run("ratio-experiment", "--case", case, "--p-list", "20,60", "--n", 60,
            "--seed", 5, "--out", tmp / f"case{case}")


def mode_estimate_pipeline(tmp):
    run("gen-data", "--kind", "ar1", "--p", 10, "--n", 50, "--seed", 4,
        "--out", tmp / "data")
    run("search", "--data", tmp / "data", "--search-iters", 5, "--seed", 4,
        "--out", tmp / "mode")
    run("estimate", "--data", tmp / "data", "--estimator", "l1-stein",
        "--graph", tmp / "mode" / "mode_graph.edges", "--seed", 4,
        "--out", tmp / "est")


def precision_pipeline(tmp):
    run("gen-data", "--kind", "ar2", "--p", 10, "--n", 40, "--seed", 6,
        "--out", tmp / "data")
    run("estimate", "--data", tmp / "data", "--estimator", "l2",
        "--graph", tmp / "data" / "graph0.edges", "--seed", 6, "--out", tmp / "l2")
    # run_chain with sample_precision: the closed-form posterior mean
    # given each kept graph, averaged over the kept steps
    run("mcmc", "--data", tmp / "data", "--sample-precision",
        "--kernel", "uniform", "--burn-in", 100, "--iterations", 300,
        "--seed", 6, "--out", tmp / "mcmc")


def exact_pipeline(tmp):
    run("gen-data", "--kind", "ar2", "--p", 7, "--n", 40, "--seed", 8,
        "--out", tmp / "data")
    run("mcmc", "--data", tmp / "data", "--kernel", "exact", "--sample-precision",
        "--burn-in", 100, "--iterations", 300, "--seed", 8, "--out", tmp / "chain")


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
            "d08ddfb031b613b280b30323b1e88c32f7ac9dc50458f755e587aaa1822134ad",
        "chain/median_graph.edges":
            "7679dc41a7fcd4a5856151014e0bbbef81170042597cb979752bf38ec83c9b83",
        "chain/meta.json":
            "ce0a67d26bf8b550f55e9f7c07875fca2370424e278b4fadb4d3d0b497070bf9",
        "chain/trace.csv":
            "54b5c689dda836403a2914dd819192bdcc47d481157ce0b828556a86262676bb",
        "data/X.csv":
            "cb54de56bd608bd0b7c8c5451c0d20d16a41359c25802743cbe56cb634f18aa0",
        "data/graph0.edges":
            "99c6ce6d132e0435381d61a5cd21d8953118c110e05c3e43b0ba511cfd4d13e7",
        "data/meta.json":
            "cccfc04690ac1f3d657b61158660aac01e7938c1d9bb0e65d443be27bb0f6367",
        "data/omega0.csv":
            "3cd432471b5fce9f82fda6121cc2f9c6006effaab80464082c4caff11ac5410f",
    }),
    "ratio": (ratio_pipeline, {
        "case1/meta.json":
            "81a29eaa0a983a8603cbed8392ae9e1bb9cf38decbe06faf166832f96b998dca",
        "case1/ratio.csv":
            "04905a21ea975eba746ee40a748ecd473f3479080ea95fe66e4699ba4d88d4c3",
        "case2/meta.json":
            "13d5d81b5a75bafb233a155a9fdcbe5900147b06f46166bfd84d6c572d509347",
        "case2/ratio.csv":
            "2bf92085468c1dbfc770ef5c336e30285992aa9095c2b19c5dc48e6a61a42ebe",
        "case3/meta.json":
            "a11ccb6beff38a21162c1d43622366343d4678dd0726b0484bbc4643b9e6ca0f",
        "case3/ratio.csv":
            "458fcd2d5ca749b7c2ccb0933847e5e574690ac14053c86727e2c19e4c50cddd",
        "case4/meta.json":
            "697f9279a0f99705f22d9f1ef6859714204d519a71eaba1fc04e31b0ad4f4561",
        "case4/ratio.csv":
            "811b5ccd403e16612a7f07a4ab288269adfc9e2dd83a804bd3d41b4a9759bc07",
    }),
    "mode_estimate": (mode_estimate_pipeline, {
        "data/X.csv":
            "743d6897bc43b3fab88607bf8e7771e68db14fbbdab62de0580e1c005f9a4811",
        "data/graph0.edges":
            "401d108514baebeaaf4f3fffedb2bc9cb694b32487645900eea1ea92a0a53f85",
        "data/meta.json":
            "ca9ba03467961ba796774cd32ba8c34b95cd18153ff37f846d5423c7522d5b70",
        "data/omega0.csv":
            "7eef329e33d1cca45893be2b9f777b850a6701815abc24e3a8465b510efca4c2",
        "est/meta.json":
            "29d2fa8cc16c31cdf90b90a8ea9d4c44a309e800f33247bd1b135901bcb45ab0",
        "est/omega_hat.csv":
            "517fc8000e3c55fd77c6e48b5ecf2751485f0a2b9f81ee1a91adb8347cad4ee9",
        "mode/meta.json":
            "5029ef83b9a233eed93ed0e8f33500b9d3556273b365efdddc9490fdf63a4497",
        "mode/mode.json":
            "01262ae4f9adc5ff902b5d494c493ca1354f73ef096b6fc27e2c970c426a813e",
        "mode/mode_graph.edges":
            "a1eb4b3de130b510dbe82e5ce52e3713858edcb0d908c58fa9aef68ecba12ddb",
    }),
    "precision": (precision_pipeline, {
        "data/X.csv":
            "fa3212ed9898c758f90e7c09fffadcbd9855ffb30b2c6a7633959744e6d25e49",
        "data/graph0.edges":
            "b1103719e56821ddee78cfd05c3d6ce823358eeb3fc9b00a1d8f9e8ff53bb7d6",
        "data/meta.json":
            "1040a84c292a979b648f253052b701764afee1520ededcc0d1e4ee17ecff5194",
        "data/omega0.csv":
            "16ae3cbc08488386404e5d227d8fd45f0f633e9371de7015283831963b604400",
        "l2/meta.json":
            "bcece7043b030d2c47f98a2e9f120e5b009b36caaf0db87f0aed3eccf14f0e1c",
        "l2/omega_hat.csv":
            "35db384cf5078b2a328be65e3690f03f6add298205c2b76e1e5bc99b8ede351b",
        "mcmc/best_graph.edges":
            "764d85a7dd03c668d58a10ef869e82bd1c7da0e19ef0a3a91603e1d19f3b9478",
        "mcmc/inclusion.csv":
            "ab9bbf852ebc7273329914dd1dda4d5a971d6897213457d7e09e48d1415285ee",
        "mcmc/median_graph.edges":
            "764d85a7dd03c668d58a10ef869e82bd1c7da0e19ef0a3a91603e1d19f3b9478",
        "mcmc/meta.json":
            "b3a906343a20d2e49b86d7a38162e208ed59bf3bdc276e4410b9054fe7fc1bad",
        "mcmc/omega_mcmc.csv":
            "608cfc09c5f1de70980a372024b901523e41dc1cee5ccd88d6a1cd6fcd41d82b",
        "mcmc/trace.csv":
            "09dfd54662ae5b334aac2847ca939e9223d0e44d7d2b15ba9abe8eedd3ca6225",
    }),
    "exact": (exact_pipeline, {
        "chain/best_graph.edges":
            "30f86b81a6db01a60a423996194b09e73a3eee239f3c623b4d6d6085f8ea7c1c",
        "chain/inclusion.csv":
            "e1fdb7237edc67feaeb1aa73244a73b4ab25dff7c70a5327feacd2e7cfc93531",
        "chain/median_graph.edges":
            "30f86b81a6db01a60a423996194b09e73a3eee239f3c623b4d6d6085f8ea7c1c",
        "chain/meta.json":
            "59388117abd7767243b05fd08f88a3c460f6a86bab178b6216a9fb65d95ec295",
        "chain/omega_mcmc.csv":
            "abe02952b5383325bf3cf3b84d34f87a96ee91e2354bf7007cb14d7171c132af",
        "chain/trace.csv":
            "e5dc653a26cfb27932ae8516776333f8676b093c1195fc8755357ee568a559e8",
        "data/X.csv":
            "75133bf81984db690a9bb7c35bd8e1310e212c9fe152b9e815d728c96539ecee",
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
            "1c4aceb9b9263731cf41e2db5685fb940ab3abf76723701bbc0d0a8db6c9fcae",
        "exact/trace.csv":
            "c923ec035f62cc9b7b93d9f2ee4d0128a972cd27415a2c183011985dd59c4b85",
        "uniform/best_graph.edges":
            "ebf0da8fdb740f4dc1033b404b9b6e46a2777bf45d37e9fa6fdb9d1af2f8dc2c",
        "uniform/inclusion.csv":
            "353bfa4f19f2c52106e3d4a0b2954505e6524505c7cde1ed0352d33f94c2d8e4",
        "uniform/median_graph.edges":
            "ebf0da8fdb740f4dc1033b404b9b6e46a2777bf45d37e9fa6fdb9d1af2f8dc2c",
        "uniform/meta.json":
            "17d890b406565668c09a3f210d6206868008a77a79aedac9b64fbec26f32765f",
        "uniform/trace.csv":
            "9cdc49f52c4ddcee77c51c3ef1be4b163b51b0a00df38a9cb85714a8c8d95309",
    }),
    "small_n": (small_n_pipeline, {
        "chain/best_graph.edges":
            "69edabcd32c9c33726fcf6eece25443c2af1693768f53abdbce1e1256544af59",
        "chain/inclusion.csv":
            "16210d341d645c6edc720ec7838fd428c7e13e1d7fee926504a0cb0fbf8db210",
        "chain/median_graph.edges":
            "c47b9ec2a88400eaa43fd528ce5f6b6612ac58c31005f15a7959bb32ea254a0e",
        "chain/meta.json":
            "9e0fd4273e5b3b26a0dd755a4ec060f44f099dea54ba3842860a615aefb07506",
        "chain/trace.csv":
            "3eb5812268cf2e6a74f0d002939357618202211940be3d99304124aa716c4c74",
        "data/X.csv":
            "e579906094dab8c41d25b5a6b1c010977c9bf471a753ef69a1810f5ed4c876f5",
        "data/graph0.edges":
            "99c6ce6d132e0435381d61a5cd21d8953118c110e05c3e43b0ba511cfd4d13e7",
        "data/meta.json":
            "71a53262ec42af1dfec67d1bb05fe740062f231442b458db70f585c828459cb9",
        "data/omega0.csv":
            "3cd432471b5fce9f82fda6121cc2f9c6006effaab80464082c4caff11ac5410f",
        "mode/meta.json":
            "1b0ba06519c31914174a3d6de01d285c18ad93ca36e71ada7c52ae0c8f70cab4",
        "mode/mode.json":
            "91bee7308b107e258527071c87507d5619ddef5de774fbea7963bd7f3196d1a8",
        "mode/mode_graph.edges":
            "69edabcd32c9c33726fcf6eece25443c2af1693768f53abdbce1e1256544af59",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(name, tmp_path):
    pipeline, expected = GOLDEN[name]
    pipeline(tmp_path)
    assert hashes(tmp_path) == expected
