import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import convexlab
from convexlab.cli import main
from convexlab.corpus import DEFAULT_FIXTURES_DIR
from convexlab.families import FamilySpec, generate
from convexlab.sets import NumberSet, read_set_file, write_set_file


@pytest.fixture
def set_file(tmp_path):
    def make(name, values):
        path = tmp_path / name
        path.write_text("\n".join(str(v) for v in values) + "\n")
        return str(path)

    return make


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_values_and_exit(self, set_file, capsys):
        path = set_file("a.txt", [0, 1, 3])
        code, out, err = run(["stats", "--input", path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["energy"] == {"E": "15", "E3": "33", "E15": {"1": "6", "3": "3"}, "maxMult": "3"}
        assert payload["sizes"]["diffset"] == 7
        assert payload["seed"] == 0 and "seedRule" in payload
        assert "E = 15" in err

    def test_singleton(self, set_file, capsys):
        path = set_file("one.txt", [5])
        code, out, _ = run(["stats", "--input", path], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["sizes"] == {"size": 1, "sumset": 1, "diffset": 1, "prodset": 1}
        assert payload["energy"]["E"] == "1"

    def test_malformed_line_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1\nnot-a-number\n")
        code, _, err = run(["stats", "--input", str(path)], capsys)
        assert code == 1
        assert f"{path}:2" in err

    def test_missing_file(self, capsys):
        code, _, err = run(["stats", "--input", "/nonexistent/zzz.txt"], capsys)
        assert code == 1


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 1

    def test_missing_required(self, capsys):
        assert run(["stats"], capsys)[0] == 1

    def test_bad_theorem(self, set_file, capsys):
        path = set_file("a.txt", [1, 2])
        assert run(["audit", "--input", path, "--theorem", "T9"], capsys)[0] == 1

    @pytest.mark.parametrize("command, flag", [
        ("stats", "--workers"), ("audit", "--workers"), ("scan", "--workers"),
        ("stats", "--seed"), ("audit", "--seed"), ("incidence", "--seed"),
        ("stats", "--fixtures"), ("incidence", "--fixtures"), ("scan", "--fixtures"), ("search", "--fixtures"),
    ])
    def test_flag_only_where_used(self, command, flag, set_file, tmp_path, capsys):
        a = set_file("a.txt", [1, 2, 4])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objective": "diffProdRatio", "set_size": 4, "iterations": 0}))
        argv = {
            "stats": ["--input", a],
            "audit": ["--input", a, "--theorem", "T1"],
            "scan": ["--kind", "AP", "--sizes", "4,8"],
            "incidence": ["--input", a, "--bset", a, "--cset", a],
            "search": ["--config", str(cfg)],
        }[command]
        assert run([command, *argv], capsys)[0] == 0
        assert run([command, *argv, flag, "1"], capsys)[0] == 1

    def test_empty_tau_list(self, set_file, capsys):
        a = set_file("a.txt", [1, 2, 4])
        assert run(["incidence", "--input", a, "--bset", a, "--cset", a, "--tau", ""], capsys)[0] == 1


class TestAudit:
    def test_t1_squares_exit_zero(self, set_file, capsys):
        path = set_file("sq.txt", [i * i for i in range(1, 17)])
        code, out, err = run(["audit", "--input", path, "--theorem", "T1"], capsys)
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert lines[0]["type"] == "header" and lines[0]["seed"] == 0
        assert lines[-1]["type"] == "chain" and lines[-1]["theorem"] == "T1"
        steps = [l for l in lines if l["type"] == "step"]
        assert all(s["verdict"] in ("PASS", "REPORT_ONLY") for s in steps)

    def test_t3_singleton_degenerate(self, set_file, capsys):
        path = set_file("one.txt", [4])
        code, out, _ = run(["audit", "--input", path, "--theorem", "T3"], capsys)
        assert code == 0
        chain = json.loads(out.splitlines()[-1])
        assert chain["finalRatio"] == "1"
        assert "log|A| clamped to 1" in chain["flags"]

    def test_diffprod_alias(self, set_file, capsys):
        path = set_file("p.txt", list(range(1, 9)))
        code, out, _ = run(["audit", "--input", path, "--theorem", "C_diffprod"], capsys)
        assert code == 0
        assert json.loads(out.splitlines()[-1])["theorem"] == "C_diffprod"

    def test_fixture_match_and_breach(self, set_file, tmp_path, capsys):
        path = set_file("sq.txt", [i * i for i in range(1, 9)])
        code, out, _ = run(["audit", "--input", path, "--theorem", "T1"], capsys)
        chain = json.loads(out.splitlines()[-1])
        steps = {l["name"]: l["ratio"] for l in map(json.loads, out.splitlines())
                 if l["type"] == "step" and l["verdict"] == "REPORT_ONLY"}
        key = "T1/square/n=8"
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"chains": {key: {"finalRatio": chain["finalRatio"], "steps": steps}}}))
        code, _, _ = run(["audit", "--input", path, "--theorem", "T1", "--fixtures", str(good),
                          "--fixture-key", key], capsys)
        assert code == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"chains": {key: {"finalRatio": "1e-9", "steps": {}}}}))
        code, out, err = run(["audit", "--input", path, "--theorem", "T1", "--fixtures", str(bad),
                              "--fixture-key", key], capsys)
        assert code == 2
        assert any(json.loads(l).get("type") == "regression" for l in out.splitlines())

    def test_readme_fixture_example(self, tmp_path, capsys):
        path = tmp_path / "A.txt"
        write_set_file(path, generate(FamilySpec("squares", 16)))
        fixtures = str(DEFAULT_FIXTURES_DIR / "chain_ratios.json")
        code, out, _ = run(["audit", "--input", str(path), "--theorem", "T2", "--fixtures", fixtures,
                            "--fixture-key", "T2/squares/n=16"], capsys)
        assert code == 0
        assert all(json.loads(l)["type"] != "regression" for l in out.splitlines())

    def test_fixtures_need_a_key(self, tmp_path, capsys):
        missing = str(tmp_path / "never-read.txt")  # exits before any file is read
        code, out, err = run(["audit", "--input", missing, "--theorem", "T2",
                              "--fixtures", str(DEFAULT_FIXTURES_DIR / "chain_ratios.json")], capsys)
        assert code == 1 and out == ""
        assert "--fixture-key" in err and "<theorem>/<family>/n=<size>" in err

    def test_custom_cset(self, set_file, capsys):
        a = set_file("a.txt", list(range(1, 9)))
        c = set_file("c.txt", [2, 3, 5, 7, 11, 13, 17, 19])
        code, out, _ = run(["audit", "--input", a, "--theorem", "T2", "--cset", c], capsys)
        assert code == 0

    def test_t3_refuses_cset(self, set_file, capsys):
        a = set_file("a.txt", list(range(1, 9)))
        code, out, err = run(["audit", "--input", a, "--theorem", "T3", "--cset", a], capsys)
        assert (code, out) == (1, "")
        assert err == "error: T3 takes no C set: its chain reads only A and f(A)\n"


# sha256 of whole `audit --output` reports: they pin every byte of each report.
GOLDEN_SETS = {
    "squares12": FamilySpec("squares", 12),
    "rconvex12": FamilySpec("random-convex", 12, seed=5),
    "ap4": FamilySpec("AP", 4, start=Fraction(1)),
}
GOLDEN_AUDITS = {
    ("squares12", "T1", ()): "b2054c2e0e32312871d30e2d63c108c71bc0b9f0e6a8d52d26773de059af4acf",
    ("squares12", "T2", ()): "03e18794b3485549b5127599847d258e3a3d2f7b3affff39fc4df770a311d6f7",
    ("squares12", "T3", ()): "643931a33b2fa6bc229d8ab43e08cb3e9107c973f32951a5ae78b2f68da89da6",
    ("squares12", "C_diffprod", ()): "603bb4c2493eacfd62156d993064244e8b1c01cf597bf58bb5fc43287921a7de",
    ("squares12", "C_sumprod", ()): "44471577c7e5acdac2dfd7b22d483293cd8e16c5313c73ff2931ff920d065986",
    ("rconvex12", "T1", ()): "8997b95fb7b20d9ca1e99c7bda7926383ea2d8cff7d7205c907157aa812887ee",
    ("rconvex12", "T2", ()): "a54889109b2dc9e707f5fa5e782b622f5d7a917072642dc2cbc156dfd2db2c46",
    ("rconvex12", "T3", ()): "673d77f89972f9013ab59679aa5abb109aa4b06977ea1811cc1c0b98312dff06",
    ("rconvex12", "C_diffprod", ()): "8060eff33883665c340f566a5ea734b67dcb2619672f4c00c67751c0c05df486",
    ("rconvex12", "C_sumprod", ()): "a24fc35c1018c8ffbee77bbab3f02cde1fdcd7b4e85e82dd7df27de49a29d3bb",
    ("squares12", "T1", ("--cset", "ap4.txt")): "050be5d3261bd84fcb2ddc2e5267dbf4c33633f77aa74cd394484828220e98a9",
    ("squares12", "T2", ("--cset", "ap4.txt")): "8e81be63905dfaae371bf1ea53049383fa67db5291781af4b6a8c020965d146e",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_AUDITS), ids=lambda c: "-".join((c[0], c[1], *c[2][1:])))
def test_audit_report_digests(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the header records the input path as given
    for name, spec in GOLDEN_SETS.items():
        write_set_file(f"{name}.txt", generate(spec))
    name, theorem, extra = case
    code, _, _ = run(["audit", "--input", f"{name}.txt", "--theorem", theorem, "--fn", "square",
                      *extra, "--output", "out.txt"], capsys)
    assert code == 0
    assert hashlib.sha256((tmp_path / "out.txt").read_bytes()).hexdigest() == GOLDEN_AUDITS[case]


# sha256 of whole `incidence --tau 1,2,4,8 --output` reports, keyed (fn, A, B, C) over GOLDEN_SETS
GOLDEN_INCIDENCES = {
    ("exp2", "ap4", "squares12", "ap4"): "a120638e0e721d440237987fc9580b51e9d189ca807006e61e1b961e81060865",
    ("exp2", "squares12", "ap4", "ap4"): "84f532eccd40c184c3f74c3da12a1f9d26e586749f458424f3a66a3da9dd56b6",
    ("power:3", "ap4", "squares12", "ap4"): "8daf31a07e73c5e88c5e04a384aac9756e3ef9b528fa6498f565096dab31410e",
    ("power:3", "rconvex12", "ap4", "squares12"): "34c0204824840545944ad4a62ef19353a9ab37ba44636264ee8a7cd2d846fa99",
    ("power:3", "squares12", "ap4", "ap4"): "c2d3048d14a5ad382f933a2f4f0113d54f52f25fe05ae82a5cfd2c6562feeb71",
    ("reciprocal", "ap4", "squares12", "ap4"): "17977f7d194fbd538d4b726fe4e09a3a3426aee84e1390c0078c3585ee37806e",
    ("reciprocal", "rconvex12", "ap4", "squares12"): "ae82e6df943e938da6c8d8fc0635fe98cbf227a9aff852d303dfe3f5f15675d1",
    ("reciprocal", "squares12", "ap4", "ap4"): "be68ca43405519004392013c1263d2903d5a9ce4aeaa97b5fa895a8ace4d3bbe",
    ("square", "ap4", "squares12", "ap4"): "9160f8c7af58e65cb7daba7413f9dff3dc57fde32288b35d4542b6d8a531ba90",
    ("square", "rconvex12", "ap4", "squares12"): "aa5d0d2efd4c66ba3381def27ed8d95642ab1cb6b917094a7cd693d58199dd99",
    ("square", "squares12", "ap4", "ap4"): "fe0a85a54232de1b9d1da5b28d58763d1afe5092b56321aa6bb3148e23b04819",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_INCIDENCES), ids="-".join)
def test_incidence_report_digests(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the header records the input path as given
    for name, spec in GOLDEN_SETS.items():
        write_set_file(f"{name}.txt", generate(spec))
    fn, a, b, c = case
    code, _, _ = run(["incidence", "--input", f"{a}.txt", "--bset", f"{b}.txt", "--cset", f"{c}.txt",
                      "--fn", fn, "--tau", "1,2,4,8", "--output", "out.txt"], capsys)
    assert code == 0
    assert hashlib.sha256((tmp_path / "out.txt").read_bytes()).hexdigest() == GOLDEN_INCIDENCES[case]


# sha256 of whole `search --seed 3 --output` reports at n = 24, keyed (objective, fn, moves, start):
# 200 annealing steps grow the denominators far past int64
SEARCH_STARTS = {
    "geo": {"kind": "geometric", "ratio": "2"},
    "AP": {"kind": "AP", "start": "1", "step": "1"},
    "rconvex": {"kind": "random-convex"},
}
SEARCH_MOVES = {"replace": ["element-replace"], "shift": ["gap-perturb"], "both": ["element-replace", "gap-perturb"]}
GOLDEN_SEARCHES = {
    ("T1ratio", "square", "replace", "geo"): "1b9224b152da72e9ba7d32986b8d4848fcf4b93f7dbadc0b94c3f68233e45078",
    ("T1ratio", "reciprocal", "shift", "AP"): "d0073885626ab25075d71cee4bbee26588d99d0fe97dbb5e58774472d7e187cb",
    ("T1ratio", "power:3", "both", "rconvex"): "ae2c33e4b6e5bccb9ce5d89c1757108884a00c1c4f24222546dbe1028014fd50",
    ("T2ratio", "power:3", "replace", "rconvex"): "54c2b6d5edfe4cbd1060d99262a3a2c75caf0589abf765833dfd09801cf3ed5d",
    ("T2ratio", "square", "shift", "geo"): "efde30d4a6803327b60a3405bccc89014358e3e969ac88aedba48b046ddf907f",
    ("T2ratio", "reciprocal", "replace", "AP"): "265fdcdab0d09137710d06123e37ac1aca4dba0fae47abf17b08f0789869a758",
    ("diffProdRatio", "square", "shift", "rconvex"): "022ff7b4b9d6e29244c7f8d1831b5e88ec9d4425eda2fc0117fc7fc24262de2a",
    ("diffProdRatio", "square", "replace", "geo"): "dd97d1239b08b1870f825e1157922921d986e6324400a8426026aa5afd756555",
    ("sumProdRatio", "square", "replace", "AP"): "fc490a1891adb08bfc5f032cb3e2c9ba4cdfd2ec7b82677e025ac33f7b552a8d",
    ("sumProdRatio", "square", "shift", "geo"): "dfd9f17ca04d322b63210c7149fb866d719973d709b81d783a78929dc6211b2b",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SEARCHES), ids="-".join)
def test_search_report_digests(case, tmp_path, capsys):
    objective, fn, moves, start = case
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "objective": objective, "set_size": 24, "iterations": 200, "fn": fn, "initial": SEARCH_STARTS[start],
        "move_set": SEARCH_MOVES[moves],
    }))
    out = tmp_path / "out.txt"
    assert run(["search", "--config", str(config), "--seed", "3", "--output", str(out)], capsys)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SEARCHES[case]


class TestIncidence:
    def test_parabola(self, set_file, capsys):
        a = set_file("a.txt", [0, 1, 2])
        z = set_file("z.txt", [0])
        code, out, err = run(
            ["incidence", "--input", a, "--bset", z, "--cset", z, "--fn", "square", "--tau", "1,2"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["incidence"]["incidences"] == 3
        assert payload["incidence"]["stBoundHolds"] is True
        assert payload["incidence"]["richPoints"] == {"1": 3, "2": 0}
        assert "incidences = 3" in err

    def test_workers_identical_output(self, set_file, capsys):
        a = set_file("a.txt", list(range(1, 7)))
        b = set_file("b.txt", [0, 1, 3, 7])
        c = set_file("c.txt", [0, 2, 5])
        code1, out1, _ = run(["incidence", "--input", a, "--bset", b, "--cset", c], capsys)
        code2, out2, _ = run(["incidence", "--input", a, "--bset", b, "--cset", c, "--workers", "4"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2


class TestScan:
    def test_tsv_and_slope(self, capsys):
        code, out, err = run(["scan", "--kind", "AP", "--sizes", "4,8,16", "--fn", "square"], capsys)
        assert code == 0
        body = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert body[0].startswith("kind\tn\tsumset")
        assert len(body) == 4
        assert "# seed 0" in out

    def test_bad_sizes(self, capsys):
        assert run(["scan", "--kind", "AP", "--sizes", "16,4"], capsys)[0] == 1


class TestSearch:
    def make_config(self, tmp_path, **overrides):
        data = {"objective": "diffProdRatio", "set_size": 8, "iterations": 0, "seed": 1}
        data.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_zero_iterations_echoes_initial(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        code, out, _ = run(["search", "--config", cfg], capsys)
        assert code == 0
        result = json.loads(out.splitlines()[-1])
        assert result["bestSet"] == ["1", "2", "4", "8", "16", "32", "64", "128"]

    def test_byte_identical_runs_and_workers(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, iterations=30, restarts=2)
        _, out1, _ = run(["search", "--config", cfg], capsys)
        _, out2, _ = run(["search", "--config", cfg], capsys)
        _, out3, _ = run(["search", "--config", cfg, "--workers", "2"], capsys)
        assert out1 == out2 == out3

    def test_seed_zero_overrides_config(self, tmp_path, capsys):
        _, via_flag, _ = run(["search", "--config", self.make_config(tmp_path, iterations=20, seed=5),
                              "--seed", "0"], capsys)
        _, via_config, _ = run(["search", "--config", self.make_config(tmp_path, iterations=20, seed=0)], capsys)
        flag_lines, config_lines = via_flag.splitlines(), via_config.splitlines()
        assert json.loads(flag_lines[0])["config"]["seed"] == 0
        assert flag_lines[1:] == config_lines[1:]

    def test_best_set_round_trip(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, iterations=25)
        best_path = tmp_path / "best.txt"
        code, out, _ = run(["search", "--config", cfg, "--best-set", str(best_path)], capsys)
        assert code == 0
        result = json.loads(out.splitlines()[-1])
        reread = read_set_file(best_path)
        assert [str(q) for q in reread] == result["bestSet"]

    def test_bad_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"objective": "nope", "set_size": 8, "iterations": 1}))
        assert run(["search", "--config", str(path)], capsys)[0] == 1

    def test_pair_budget_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        # 5,793^2 pairs exceed PAIR_BUDGET = 2^25; the start set is never generated
        def refuse(*_):
            raise AssertionError("generate ran on an over-budget config")

        monkeypatch.setattr("convexlab.families.generate", refuse)
        monkeypatch.setattr("convexlab.search.generate", refuse)
        code, _, err = run(["search", "--config", self.make_config(tmp_path, set_size=5793)], capsys)
        assert code == 1
        assert "PAIR_BUDGET" in err


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        a = NumberSet([Fraction(-5, 4), Fraction(0), Fraction(7, 3), Fraction(12)])
        path = tmp_path / "set.txt"
        write_set_file(path, a, header="demo set")
        assert read_set_file(path) == a

    def test_output_flag_writes_file(self, set_file, tmp_path, capsys):
        a = set_file("a.txt", [0, 1, 3])
        out_path = tmp_path / "stats.json"
        code, out, _ = run(["stats", "--input", a, "--output", str(out_path)], capsys)
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["energy"]["E"] == "15"


NUMPY_FREE_RUN = """
import sys
from convexlab.cli import main
for fn in ("square", "power:3", "reciprocal", "exp2"):
    sets = "int" if fn == "exp2" else "convex"
    argv = ["incidence", "--input", f"{sets}-a.txt", "--bset", f"{sets}-b.txt", "--cset", f"{sets}-c.txt"]
    assert main(argv + ["--fn", fn, "--output", "out.json"]) == 0
assert main(["search", "--config", "cfg.json", "--output", "out.json"]) == 0
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_incidence_and_search_never_import_numpy(tmp_path):
    """At the benchmark's sizes every count stays below the numpy threshold, so the CLI never loads numpy."""
    for j, part in enumerate("abc"):
        write_set_file(tmp_path / f"convex-{part}.txt", generate(FamilySpec("random-convex", 22, seed=j)))
        write_set_file(tmp_path / f"int-{part}.txt", NumberSet(random.Random(j).sample(range(1, 45), 22)))
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"objective": "diffProdRatio", "set_size": 24, "iterations": 10, "seed": 1}))
    src = str(Path(convexlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NUMPY_FREE_RUN], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
