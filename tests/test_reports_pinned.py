"""Reports pinned by sha256 digest.

A refactor must leave the reports byte-identical, with only `wall_time`
stripped.  The digests below pin the CLI output at seed 42:

* `verify-all --json` (default suites, 5 cases) and `module-info --json`
  on the 9-config grid n in {1, 2, 3} x {trivial, polyquot (x-2)^3 @ 2,
  laurent @ 3};
* `irrep-info --json` (no `--matrices`, so basis-independent) for the
  five modules of the gl-build benchmark workload, with c = 3/2;
* `irrep-info --matrices --json`, every E_ij in the Gelfand-Tsetlin
  basis, for the gl-build and gl-cert modules, with c = 3/2;
* `verify-all --json` with gl-relations and irreducibility for the
  d = 8..15 modules of the gl-cert benchmark ladder, with c = 3/2;
* the same for the d = 27..64 modules of the gl-build workload, up to
  `DIM_CAP`, where the null spaces and Norton spins are largest;
* `verify-all --json` (default suites, 5 cases) at n = 2 over
  F[x]/(x^2) @ 0 and F[x]/(x - 2) @ 2, whose coefficient pools hold 0;
* `verify-all --json` (default suites, 5 cases) for two configs with
  non-real c and alpha, at n = 2 over laurent @ 3 and at n = 3 over
  polyquot (x-2)^3 @ 2, so the imaginary parts of the residuals and of
  the Gaussian-integer elimination reach a digest.

The grid and gl-build digests were computed with the tensor-power
construction of `build_irrep`, before it was replaced by the
Gelfand-Tsetlin one; the gl-cert digests with the Burnside closure as
the only irreducibility certificate, before Norton's test; the gl-build
`verify-all` digests before elimination moved to sparse vectors; the
`--matrices` digests with every E_ij built as a dense list; the
zero-pool digests with every sampled loop element a chain of sums.  To print
the digests of the current code: `python3 tests/test_reports_pinned.py`.
"""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from loopwitt.cli import main

GRID_MU = {1: [], 2: [1], 3: [1, 0]}
ZERO_POOL_B = {
    "x^2": {"kind": "polyquot", "modulus": ["0", "0", "1"],
            "eval_point": "0"},
    "x-2": {"kind": "polyquot", "modulus": ["-2", "1"], "eval_point": "2"},
}
B_SPECS = {
    "trivial": {"kind": "trivial"},
    "polyquot": {"kind": "polyquot",
                 "modulus": ["-8/1", "12/1", "-6/1", "1/1"],
                 "eval_point": "2/1"},
    "laurent": {"kind": "laurent", "eval_point": "3/1"},
}
# d = 27, 35, 45, 64, 40
GL_BUILD_MODULES = [(3, [2, 2]), (3, [4, 1]), (4, [2, 1, 0]),
                    (4, [1, 1, 1]), (5, [1, 1, 0, 0])]
# d = 8, 10, 15, 10, 15
GL_CERT_MODULES = [(3, [1, 1]), (3, [3, 0]), (3, [2, 1]), (4, [2, 0, 0]),
                   (4, [1, 0, 1])]
# (n, mu, c, alpha, B) with non-real entries
COMPLEX_CONFIGS = [(2, [1], "1/2+1 i", ["1/3+1/2 i", "-2/3"], "laurent"),
                   (3, [1, 0], "3/2-1/2 i", ["1/3", "-1/2 i", "2/3+1 i"],
                    "polyquot")]


def _calls():
    """name -> (CLI arguments without --config, config document)."""
    out = {}
    for n in GRID_MU:
        for kind, b in B_SPECS.items():
            doc = {"n": n, "mu": GRID_MU[n], "B": b, "seed": 42,
                   "cases_per_suite": 5}
            out[f"verify-all/{n}/{kind}"] = (["verify-all", "--json"], doc)
            out[f"module-info/{n}/{kind}"] = (["module-info", "--json"], doc)
    for n, mu in GL_BUILD_MODULES:
        out[f"irrep-info/{n}/{mu}"] = (["irrep-info", "--json"],
                                       {"n": n, "mu": mu, "c": "3/2"})
    for n, mu in GL_BUILD_MODULES + GL_CERT_MODULES:
        out[f"matrices/{n}/{mu}"] = (["irrep-info", "--matrices", "--json"],
                                     {"n": n, "mu": mu, "c": "3/2"})
    for label, modules in (("gl-cert", GL_CERT_MODULES),
                           ("gl-build", GL_BUILD_MODULES)):
        for n, mu in modules:
            out[f"{label}/{n}/{mu}"] = (
                ["verify-all", "--json"],
                {"n": n, "mu": mu, "c": "3/2", "seed": 42,
                 "cases_per_suite": 1,
                 "suites": ["gl-relations", "irreducibility"]})
    for kind, b in ZERO_POOL_B.items():
        out[f"zero-pool/2/{kind}"] = (
            ["verify-all", "--json"],
            {"n": 2, "mu": [1], "B": b, "seed": 42, "cases_per_suite": 5})
    for n, mu, c, alpha, kind in COMPLEX_CONFIGS:
        out[f"complex/{n}/{kind}"] = (
            ["verify-all", "--json"],
            {"n": n, "mu": mu, "c": c, "alpha": alpha, "B": B_SPECS[kind],
             "seed": 42, "cases_per_suite": 5})
    return out


CALLS = _calls()


def report_digest(args, doc, tmp_dir) -> str:
    path = tmp_dir / "config.json"
    path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args + ["--config", str(path)])
    assert code == 0
    text = buf.getvalue()
    if args[0] == "verify-all":
        body = [{k: v for k, v in r.items() if k != "wall_time"}
                for r in json.loads(text)]
        text = json.dumps(body, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


PINNED = {
    "complex/2/laurent":
        "2af32a1933fbbc4aa360bc378349b1774c2095e4b873d0b634ba56a49eba5bb6",
    "complex/3/polyquot":
        "5dc6593445f8c0183d0cfbece5abc378af26ccc6bc01e22b3b376406f00a9963",
    "gl-build/3/[2, 2]":
        "c8a4e3a27a1fdcaa01d4cbfcd4b8c188e1e223c6bc72172c2526e797926e269b",
    "gl-build/3/[4, 1]":
        "3350cb09a1bff6ac0af3af287e7d251acdf367758294364a8f254aee5511b181",
    "gl-build/4/[1, 1, 1]":
        "2a4f03e7b393d6665c4b5c08d671c6fcef91ea4b7a7d94dfd09fae8601bd2b1f",
    "gl-build/4/[2, 1, 0]":
        "f78725dae9982e970dc10da8040eba306577e86505fdb59a6dae63078142c665",
    "gl-build/5/[1, 1, 0, 0]":
        "2bf4776e6d8aac44482868f758009acbd923973ede2bf500db53122bb83f9a78",
    "gl-cert/3/[1, 1]":
        "9e8145f8f8eb353ea205e82a6171e1455ea9cf413c84d9ed9d159198364bc0a5",
    "gl-cert/3/[2, 1]":
        "2fd4257ca581772f853129ee7338bfdb99335e1866eef26584b74049c23c4e50",
    "gl-cert/3/[3, 0]":
        "061d551ee7bef9d067cbd6fb082170e0e0316f5db6ace35a70222abd6a45296f",
    "gl-cert/4/[1, 0, 1]":
        "e3ff7172e043134bd17224ffeaefa0c01b4c93e4d38b4c16dbe58a28c04d4def",
    "gl-cert/4/[2, 0, 0]":
        "c7a5c334f3076da3407114bf8d99995690c7705143d2b6a4c6e5a6302e37975a",
    "irrep-info/3/[2, 2]":
        "9989c5981f19a769227aeb9a5dc1987117fb46ba5eec6fb1f6c97bfd25d9a731",
    "irrep-info/3/[4, 1]":
        "245e622ee8ad4f89cdd730183564ad4d721d9172d514d03194458610ae2952e1",
    "irrep-info/4/[1, 1, 1]":
        "8e21b2752efd58baccdc9f154a387d31dcbc7c318fe9e2fd83ade6f5af2ffa92",
    "irrep-info/4/[2, 1, 0]":
        "c071819e4591785b02e70172a4b563ffe26b03754c5b6e12d540df780470601a",
    "irrep-info/5/[1, 1, 0, 0]":
        "6e4a8690f7e481135c63c237a65f0350f884aaf460ed7786b16cb1721700122d",
    "matrices/3/[1, 1]":
        "f0c85aa802d6d3bdb52aaa30b5bc6cc887a63413500eefd827c808e0e59128da",
    "matrices/3/[2, 1]":
        "7e3556865cb1d72695ef418980449ed156a4f833abc0b39834086bab7e38b037",
    "matrices/3/[2, 2]":
        "cb39f7355673be0f349f3b28aa85117000fad133fc0a1af7a1edf815f6b7cadb",
    "matrices/3/[3, 0]":
        "dcbe1e4f4e63e80c3ee2dd0b190ab71bed79fe88068b4dd23be2a93e8a1f7e1f",
    "matrices/3/[4, 1]":
        "2c5e5e9ebf7466ba6e6735b725eaedd721b6fb9633b9840596891ae23cfa58af",
    "matrices/4/[1, 0, 1]":
        "cc41cf9e135b195e17e17ac1bf54cd0213cd9eb806fcde74f993c3efa675d91b",
    "matrices/4/[1, 1, 1]":
        "16eb3ba0803a9fb4006044e7d712b07e87df0ee62d52c78cfc8136edcffb1149",
    "matrices/4/[2, 0, 0]":
        "9496adda71ff62411fc5b27092a881c343036f9909e54ba30f0aae96d1bffb8a",
    "matrices/4/[2, 1, 0]":
        "f7673774917732a8efe1e64559998774aa22d8c79f0989bd940041411bb7193e",
    "matrices/5/[1, 1, 0, 0]":
        "045adce78a9745d19b50cd453bd6a44b0c4ee8711bb4e9d9dff9605422bf0bbc",
    "module-info/1/laurent":
        "b331ee1d575ab40bb858a2858afd07bd3eadb5b6b1028704daabe8517231fbe8",
    "module-info/1/polyquot":
        "9b8f0454d4898e9c1be76e07526bef235d84ff8d2ce5c058198c77e118ac3b3d",
    "module-info/1/trivial":
        "b6ad4988875566ed0ab76b6c07a81e155696ddfb89ede90d0aa1cf13f7a7e1cf",
    "module-info/2/laurent":
        "f9e78be677823f29f5dc6c7324993416ab326c69e68c4cda8cce6287f9db8ba2",
    "module-info/2/polyquot":
        "3ea4401475e0eaaeba946f46221eb434fc9abc8db22e05290e69540338f5597a",
    "module-info/2/trivial":
        "c0e19f7d1e4ce88bdbc2df56d197369dcdf857427c1be1c6e487593dccc2fc92",
    "module-info/3/laurent":
        "a06fb3adfa5097c0bb480a3216abf6c13c2488a3db60c9b51d76010a448af05b",
    "module-info/3/polyquot":
        "373956fd803e3beaa3e4b59aa0c61038f18b96e033eb19138ca65b1690770141",
    "module-info/3/trivial":
        "eac7088eacf2e2ba6b4737c97ed6474ec7b93465a1dbc99fd7826b198ec69759",
    "verify-all/1/laurent":
        "8347a7c294a516692352a0d7dafd0ad8ef3c72fe4c9fa68ebdc3028e32a52708",
    "verify-all/1/polyquot":
        "5a2a7e38ffaaa827e3eb48261e495a9baa83e40eb3f8f42c1e78e39fd3923888",
    "verify-all/1/trivial":
        "b48e68a42f11a6f8f304084be18774f40e9e2a46d5c2850c26aa3783e63df28c",
    "verify-all/2/laurent":
        "3e803a06e7f12817bab05e464be6b8c8dae6f34127c7723cd2296a61cbcfc6e9",
    "verify-all/2/polyquot":
        "7799d548d9be683e6a9808b3100f2007730e9c3662a2523b2f2d9d2514459d85",
    "verify-all/2/trivial":
        "5860391e8e535d562c05f34a1d01cf6f7d3fe94049908625a024e41b516b82bf",
    "verify-all/3/laurent":
        "13b5358efa3a9590faeac7ce643fdb919e042517a2964afa08e8fc1a2678e7fc",
    "verify-all/3/polyquot":
        "9842418bf5896b7a1cb96b0ceb765ba2bd16de3cde8480b3d2cce65c6d30956e",
    "verify-all/3/trivial":
        "ca41e93597e5b2772682a6bc5801d4404cf140fbb18097d5c40517cf3763393e",
    "zero-pool/2/x-2":
        "0532e5598efac2205fbdc338ea108483f90d6c5be32ceb940179063e1d337a17",
    "zero-pool/2/x^2":
        "b4d024a0363bc33f899cf53b09192f59aa95a9a95a5885a5f25cf23fe4655da2",
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_report_matches_pinned_digest(name, tmp_path):
    args, doc = CALLS[name]
    assert report_digest(args, doc, tmp_path) == PINNED[name]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CALLS):
            digest = report_digest(*CALLS[name], Path(tmp))
            print(f'    "{name}":\n        "{digest}",', file=sys.stdout)
