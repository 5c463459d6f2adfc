import copy
import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

import fpplab
from fpplab import expcli
from fpplab.cli import main
from fpplab.expcli import (ConfigError, RunError, config_hash, run, sweep,
                           validate_config)
from fpplab.lattice import Window, _Topology


def shape_cfg(seed=1, trials=2):
    return {"kind": "shape", "seed": seed, "trials": trials,
            "params": {"dist": {"atoms": [[1.0, 1.0]]},
                       "directions": 5, "n": 50}}


def oriented_cfg(p_values, seed=2, trials=30, T=50):
    return {"kind": "oriented", "seed": seed, "trials": trials,
            "params": {"p_values": p_values, "T": T}}


def failing_figure(*args, **kwargs):
    raise OSError("figure failed")


def files_under(root):
    return sorted(os.path.join(d, name)
                  for d, _, names in os.walk(root) for name in names)


def diagnose_cfg(seed=1, trials=2):
    targets = [{"v": [1.0, 0.0], "w": [0.0, 1.0], "n": 22},
               {"v": [0.0, 1.0], "w": [1.0, 0.0], "n": 22}]
    return {"kind": "diagnose", "seed": seed, "trials": trials,
            "params": {"dist": {"atoms": [[1.0, 0.85]],
                                "pieces": [[1.1, 1.3, 0.15]]},
                       "window": 30, "m": 5, "M": 18, "targets": targets}}


class TestValidation:
    def test_valid_config_passes(self):
        validate_config(shape_cfg())

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            validate_config({"kind": "frobnicate", "seed": 0, "params": {}})

    def test_missing_params(self):
        with pytest.raises(ConfigError):
            validate_config({"kind": "shape", "seed": 0,
                             "params": {"directions": 5}})

    def test_missing_seed(self):
        cfg = shape_cfg()
        del cfg["seed"]
        with pytest.raises(ConfigError):
            validate_config(cfg)

    @pytest.mark.parametrize("cfg", [
        {"kind": "shape", "seed": 0, "params": {"directions": 5}},
        {"kind": "shape", "seed": "one", "params": {}},
        {"kind": "oriented", "seed": 0, "workers": 2,
         "params": {"p_values": [0.7], "T": 50}},
        {"kind": "oriented", "seed": 0,
         "params": {"p_values": [0.7, 1.5], "T": 0}},
        {"kind": "compete", "seed": 0, "params": {
            "dist": {"atoms": [[1.0, 1.0]]}, "seeds": [[0, 0], [1]],
            "window": 5, "survival_threshold": 1, "tie_policy": "coin"}},
        {"kind": "diagnose", "seed": 0, "params": {
            "dist": {"atom": [[1.0, 1.0]]}, "window": 3, "m": 0, "M": 2,
            "targets": []}},
    ])
    def test_message_is_what_jsonschema_validate_gives(self, cfg):
        # the package's validator reports jsonschema's best-matching error
        import jsonschema
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(cfg, expcli.SCHEMAS[cfg["kind"]])
        with pytest.raises(ConfigError) as got:
            validate_config(cfg)
        assert str(got.value) == "config invalid for kind %s: %s" % (
            cfg["kind"], want.value.message)

    def test_integer_fields_arrive_as_ints(self):
        cfg = shape_cfg()
        cfg.update(seed=1.0, trials=2.0)
        cfg["params"]["n"] = 50.0
        parsed = validate_config(cfg)
        assert parsed == shape_cfg()
        assert [type(x) for x in (parsed["seed"], parsed["trials"],
                                  parsed["params"]["n"])] == [int] * 3
        # a number field keeps its type, and the input is not changed
        assert type(parsed["params"]["dist"]["atoms"][0][0]) is float
        assert type(cfg["params"]["n"]) is float

    def test_hash_key_order_invariant(self):
        a = {"kind": "shape", "seed": 1, "params": {"n": 50,
             "directions": 5, "dist": {"atoms": [[1.0, 1.0]]}}}
        b = {"params": {"dist": {"atoms": [[1.0, 1.0]]}, "directions": 5,
             "n": 50}, "seed": 1, "kind": "shape"}
        assert config_hash(a) == config_hash(b)


class TestRun:
    def test_shape_run_outputs(self, tmp_path, capsys):
        art = run(shape_cfg(), out_root=str(tmp_path))
        line = capsys.readouterr().out.strip()
        summary = json.loads(line)
        assert summary["kind"] == "shape"
        for p in art.payloads + art.figures:
            assert os.path.exists(p)
        with open(art.payloads[0]) as f:
            payload = json.load(f)
        assert len(payload["m_hat"]) == 5

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a = run(shape_cfg(), out_root=str(tmp_path / "a"), echo=False)
        b = run(shape_cfg(), out_root=str(tmp_path / "b"), echo=False)
        for pa, pb in zip(a.payloads, b.payloads):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_construct_emits_stage_files(self, tmp_path):
        cfg = {"kind": "construct", "seed": 0,
               "params": {"base": {"atoms": [[1.0, 0.9], [3.0, 0.1]]},
                          "schedule": {"p0": 0.9, "p_seq": [0.8, 0.72],
                                       "y_seq": [2.0, 1.5]}}}
        art = run(cfg, out_root=str(tmp_path), echo=False)
        names = [os.path.basename(p) for p in art.payloads]
        assert names[:3] == ["mu_0.json", "mu_1.json", "mu_2.json"]

    def test_run_leaves_no_topology_alive(self, tmp_path, monkeypatch):
        # the trials of a run share their window's one topology, and it
        # goes with the window when the run returns, cycle collector off
        before = [o for o in gc.get_objects() if isinstance(o, _Topology)]
        made = []
        make = _Topology.__init__

        def spy(topo, domain):
            made.append(domain)
            make(topo, domain)

        monkeypatch.setattr(_Topology, "__init__", spy)
        gc.disable()
        try:
            run(dict(VALID["ends"], trials=3), out_root=str(tmp_path),
                echo=False)
            assert made == [Window.square(10)]
            del made[:]
            alive = [o for o in gc.get_objects() if isinstance(o, _Topology)
                     and not any(o is b for b in before)]
        finally:
            gc.enable()
        assert alive == []

    def test_runtime_error_propagates(self, tmp_path):
        cfg = oriented_cfg([0.3], T=80)  # subcritical: every run dies
        with pytest.raises(RunError):
            run(cfg, out_root=str(tmp_path), echo=False)

    def test_failed_run_writes_nothing(self, tmp_path, monkeypatch):
        # the figure fails after the payload is made: nothing is written
        monkeypatch.setattr(expcli.svgout, "shape_figure", failing_figure)
        with pytest.raises(RunError, match="figure failed"):
            run(shape_cfg(), out_root=str(tmp_path), echo=False)
        assert files_under(tmp_path) == []


class TestSweep:
    def test_isolation(self, tmp_path):
        cfgs = [oriented_cfg([0.7]), oriented_cfg([0.3], T=80),
                oriented_cfg([0.9])]
        arts = sweep(cfgs, out_root=str(tmp_path), echo=False)
        assert len(arts) == 3
        assert arts[0].error is None
        assert arts[1].error is not None
        assert arts[2].error is None
        merged = os.path.join(str(tmp_path), "sweep-oriented.csv")
        lines = open(merged).read().splitlines()
        assert len(lines) == 4  # header + 3 rows

    def test_error_row_hashes_the_parsed_config(self, tmp_path):
        # a failing config with T written 80.0 is labelled as T = 80 is
        cfgs = [oriented_cfg([0.3], T=80), oriented_cfg([0.3], T=80.0)]
        arts = sweep(cfgs, out_root=str(tmp_path), echo=False)
        assert all("all 30 runs died" in a.error for a in arts)
        assert {a.config_hash for a in arts} == {config_hash(cfgs[0])}

    def test_failed_config_leaves_no_payload(self, tmp_path, monkeypatch):
        figure = expcli.svgout.shape_figure
        calls = []

        def first_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                failing_figure()
            return figure(*args, **kwargs)

        monkeypatch.setattr(expcli.svgout, "shape_figure", first_fails)
        arts = sweep([shape_cfg(seed=1), shape_cfg(seed=2)],
                     out_root=str(tmp_path), echo=False)
        assert "figure failed" in arts[0].error
        assert arts[1].error is None
        assert files_under(tmp_path) == sorted(
            [str(tmp_path / "sweep-shape.csv")]
            + arts[1].payloads + arts[1].figures)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            sweep([])

    def test_heterogeneous_rejected(self):
        with pytest.raises(ConfigError):
            sweep([shape_cfg(), oriented_cfg([0.7])])

    @pytest.mark.parametrize("bad", [5, None, "x"])
    def test_config_that_is_no_object_refused_as_run_refuses_it(
            self, bad, tmp_path):
        # refused with run()'s message before any config runs, even a
        # valid one ahead of it
        with pytest.raises(ConfigError) as want:
            run(bad, out_root=str(tmp_path), echo=False)
        for cfgs in ([bad], [oriented_cfg([0.7]), bad]):
            with pytest.raises(ConfigError) as got:
                sweep(cfgs, out_root=str(tmp_path), echo=False)
            assert str(got.value) == str(want.value)
        assert files_under(tmp_path) == []

    @pytest.mark.parametrize("bad", [{}, {"kind": "nope"}, {"kind": None}],
                             ids=["missing", "unknown", "null"])
    def test_config_with_no_known_kind_refused_as_run_refuses_it(
            self, bad, tmp_path):
        # no sweep-None.csv or sweep-nope.csv of error rows: the sweep
        # is refused with run()'s message and writes nothing
        with pytest.raises(ConfigError) as want:
            run(bad, out_root=str(tmp_path), echo=False)
        for cfgs in ([bad], [bad, bad], [oriented_cfg([0.7]), bad]):
            with pytest.raises(ConfigError) as got:
                sweep(cfgs, out_root=str(tmp_path), echo=False)
            assert str(got.value) == str(want.value)
        assert files_under(tmp_path) == []


class TestMain:
    def write(self, tmp_path, cfg, name="c.json"):
        p = tmp_path / name
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_success_exit_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, shape_cfg())
        rc = main(["shape", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads(out.strip())["kind"] == "shape"

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = self.write(tmp_path, {"kind": "shape", "seed": 0,
                                     "params": {}})
        assert main(["shape", "--config", path]) == 2

    def test_schema_validator_loaded_only_to_validate(self, tmp_path):
        # a fresh interpreter runs one config of every kind and one that
        # the schema refuses: the package validates them all, and
        # jsonschema is never loaded
        cfgs = list(VALID.values()) + [{"kind": "shape", "seed": 0,
                                        "params": {}}]
        paths = [self.write(tmp_path, cfg, "c%d.json" % i)
                 for i, cfg in enumerate(cfgs)]
        code = ("import sys\n"
                "from fpplab.cli import main\n"
                "out, args = sys.argv[1], sys.argv[2:]\n"
                "codes = [main([kind, '--config', path, '--out', out])\n"
                "         for kind, path in zip(args[::2], args[1::2])]\n"
                "print(codes, 'jsonschema' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(fpplab.__file__)))
        args = [a for cfg, path in zip(cfgs, paths)
                for a in (cfg["kind"], path)]
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "o")] + args,
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(
            [0] * len(VALID) + [2]) + " False"
        assert "config invalid for kind shape" in proc.stderr

    def test_undecodable_config_exit_two(self, tmp_path):
        # a file that the locale's encoding cannot decode is a config
        # error, not a traceback (and a schema error where it can)
        path = tmp_path / "c.json"
        path.write_bytes(b'{"kind": "shape", "seed": 0, "params": "\xff"}')
        assert main(["shape", "--config", str(path)]) == 2

    def test_kind_mismatch_exit_two(self, tmp_path):
        path = self.write(tmp_path, shape_cfg())
        assert main(["oriented", "--config", path]) == 2

    @pytest.mark.parametrize("cfg", [5, [5]])
    def test_config_not_an_object_exit_two(self, tmp_path, cfg):
        path = self.write(tmp_path, cfg)
        assert main(["shape", "--config", path]) == 2

    def test_kind_mismatch_in_list_exit_two(self, tmp_path):
        path = self.write(tmp_path, [oriented_cfg([0.7]), shape_cfg()])
        assert main(["oriented", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_runtime_error_exit_three(self, tmp_path):
        path = self.write(tmp_path, oriented_cfg([0.3], T=80))
        assert main(["oriented", "--config", path,
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("params", [
        {"p_values": [0.7, 1.5], "T": 50},
        {"p_values": [-0.1], "T": 50},
        {"p_values": [0.7], "T": 50, "pc_grid": [0.0, 0.7]},
        {"p_values": [0.7], "T": 50, "pc_grid": [0.6, 1.0]},
        # a crossing needs two grid points
        {"p_values": [0.7], "T": 50, "pc_grid": []},
        {"p_values": [0.7], "T": 50, "pc_grid": [0.65]},
        # at p = 0 no bond opens, so every run would die
        {"p_values": [0.0], "T": 50},
        {"p_values": [0.0, 0.7], "T": 50},
    ])
    def test_bad_p_exit_two_before_any_work(self, tmp_path, monkeypatch,
                                            params):
        def no_work(*args):
            raise AssertionError("ran with an invalid p")
        monkeypatch.setattr(expcli, "alpha_and_pc", no_work)
        path = self.write(tmp_path, {"kind": "oriented", "seed": 0,
                                     "params": params})
        assert main(["oriented", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_seed_override_changes_hash(self, tmp_path, capsys):
        path = self.write(tmp_path, shape_cfg())
        main(["shape", "--config", path, "--out", str(tmp_path / "o")])
        h1 = json.loads(capsys.readouterr().out.strip())["hash"]
        main(["shape", "--config", path, "--seed", "99",
              "--out", str(tmp_path / "o")])
        h2 = json.loads(capsys.readouterr().out.strip())["hash"]
        assert h1 != h2

    def test_zero_threads_in_config_exit_two(self, tmp_path):
        cfg = dict(shape_cfg(), threads=0)
        path = self.write(tmp_path, cfg)
        assert main(["shape", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_construct_keeps_a_tiny_atom_at_one(self, tmp_path, capsys):
        # p_n > 0 however small: the atom at 1 stays, its mass exactly p_n,
        # even below the float resolution of p_{n-1} (0.9 - (0.9 - 1e-17)
        # is 0.0)
        for p_seq, y_seq in (([1e-13, 1e-14], [2.5, 2.0]),
                             ([1e-17], [2.5])):
            cfg = {"kind": "construct", "seed": 0, "params": {
                "base": {"atoms": [[1.0, 0.9], [3.0, 0.1]]},
                "schedule": {"p0": 0.9, "p_seq": p_seq, "y_seq": y_seq}}}
            path = self.write(tmp_path, cfg)
            assert main(["construct", "--config", path,
                         "--out", str(tmp_path / "o")]) == 0
            line = json.loads(capsys.readouterr().out.strip())
            for i, p_n in enumerate(p_seq, 1):
                with open(line["payloads"][i]) as f:
                    atoms = dict(map(tuple, json.load(f)["atoms"]))
                assert atoms[1.0] == p_n

    def test_env_output_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FPPLAB_OUT", str(tmp_path / "envout"))
        path = self.write(tmp_path, shape_cfg())
        assert main(["shape", "--config", path]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["out"].startswith(str(tmp_path / "envout"))


UNIT = {"atoms": [[1.0, 1.0]]}
LINE = {"v": [1.0, 0.0], "w": [0.0, 1.0], "n": 5}
SCHEDULE = {"p0": 0.9, "p_seq": [0.8, 0.72], "y_seq": [2.0, 1.5]}
VALID = {
    "shape": shape_cfg(),
    "construct": {"kind": "construct", "seed": 0, "params": {
        "base": {"atoms": [[1.0, 0.9], [3.0, 0.1]]}, "schedule": SCHEDULE}},
    "oriented": oriented_cfg([0.7]),
    "compete": {"kind": "compete", "seed": 0, "params": {
        "dist": UNIT, "seeds": [[-5, 0], [5, 0]], "window": 10,
        "survival_threshold": 10}},
    "ends": {"kind": "ends", "seed": 0, "params": {
        "dist": UNIT, "window": 10, "m_grid": [3]}},
    "busemann": {"kind": "busemann", "seed": 0, "params": {
        "dist": UNIT, "window": 10, "lines": [LINE], "seeds": [[0, 0]]}},
    "diagnose": diagnose_cfg(),
}
LAW_KEY = {kind: "base" if kind == "construct" else "dist"
           for kind in VALID if kind != "oriented"}


def exit_code(tmp_path, cfg):
    """main's exit code for cfg; no output directory may be written."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code = main([cfg["kind"], "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()
    return code


class TestSharedDefinitions:
    """Each part the kinds share is defined once, so every kind refuses
    the same faults with exit code 2 and writes nothing."""

    def test_covers_every_kind(self):
        assert tuple(VALID) == expcli.KINDS
        for cfg in VALID.values():
            validate_config(cfg)

    @pytest.mark.parametrize("kind", expcli.KINDS)
    def test_unknown_top_level_key(self, tmp_path, kind):
        cfg = dict(VALID[kind], workers=2)
        assert exit_code(tmp_path, cfg) == 2

    # threads, and trials on a kind with no trial count, would change no
    # payload byte: a config or a flag that sets one is refused
    @pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
    @pytest.mark.parametrize("kind,field", [
        (kind, "threads") for kind in expcli.KINDS] + [
        (kind, "trials") for kind in expcli.KINDS
        if kind not in expcli.TRIALS])
    def test_field_that_changes_nothing_exit_two(self, tmp_path, capsys,
                                                 kind, field, flag):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            VALID[kind] if flag else dict(VALID[kind], **{field: 1})))
        argv = [kind, "--config", str(path), "--out", str(tmp_path / "o")]
        try:
            code = main(argv + (["--" + field, "1"] if flag else []))
        except SystemExit as e:  # argparse refuses a flag it does not know
            code = e.code
        assert code == 2
        assert not (tmp_path / "o").exists()
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("kind", LAW_KEY)
    def test_unknown_key_in_law(self, tmp_path, kind):
        cfg = json.loads(json.dumps(VALID[kind]))
        cfg["params"][LAW_KEY[kind]]["atom"] = [[1.0, 1.0]]
        assert exit_code(tmp_path, cfg) == 2

    @pytest.mark.parametrize("kind", LAW_KEY)
    def test_law_mass_below_one(self, tmp_path, kind):
        cfg = json.loads(json.dumps(VALID[kind]))
        cfg["params"][LAW_KEY[kind]] = {"atoms": [[1.0, 0.5], [3.0, 0.4]]}
        assert exit_code(tmp_path, cfg) == 2

    def test_construct_schedule_not_decreasing(self, tmp_path):
        cfg = json.loads(json.dumps(VALID["construct"]))
        cfg["params"]["schedule"]["p_seq"] = [0.8, 0.85]
        assert exit_code(tmp_path, cfg) == 2

    def test_construct_stages_exit_two(self, tmp_path, capsys):
        # construct runs one stage per entry of p_seq: stages is no field
        cfg = json.loads(json.dumps(VALID["construct"]))
        cfg["params"]["schedule"]["stages"] = 2
        assert exit_code(tmp_path, cfg) == 2
        assert "'stages' was unexpected" in capsys.readouterr().err

    @pytest.mark.parametrize("y_seq", [[2.0, 1.5, 1.2], [2.0]],
                             ids=["longer", "shorter"])
    def test_construct_y_seq_length_exit_two(self, tmp_path, capsys, y_seq):
        cfg = json.loads(json.dumps(VALID["construct"]))
        cfg["params"]["schedule"]["y_seq"] = y_seq
        assert exit_code(tmp_path, cfg) == 2
        assert "y_seq has %d entries, p_seq 2" % len(y_seq) in (
            capsys.readouterr().err)


def with_params(kind, **params):
    cfg = json.loads(json.dumps(VALID[kind]))
    cfg["params"].update(params)
    return cfg


class TestRunnerChecks:
    """Faults that only a runner can see (they need two fields at once)
    are config errors too: exit 2, no output. A geodesic clipped by the
    window depends on the field and stays a runtime error."""

    @pytest.mark.parametrize("cfg", [
        with_params("compete", seeds=[[-5, 0], [50, 0]]),
        with_params("compete", seeds=[[5, 0], [-5, 0], [5, 0]]),
        with_params("busemann", seeds=[[0, 0], [1, 1]]),
        with_params("busemann", seeds=[[0, 11]]),
        with_params("diagnose", m=18, M=18),
        with_params("diagnose", M=30),
        with_params("busemann", lines=[dict(LINE, n=50)]),
        with_params("ends", m_grid=[3, 5]),
    ], ids=["compete_seed_outside", "compete_seed_repeated",
            "busemann_line_count", "busemann_seed_outside",
            "diagnose_m_not_below_M", "diagnose_M_not_below_half_width",
            "busemann_line_misses_window", "ends_radius_too_large"])
    def test_config_fault_exit_two(self, tmp_path, cfg):
        assert exit_code(tmp_path, cfg) == 2

    @pytest.mark.parametrize("cfg", [
        with_params("ends", window=400, m_grid=[10, 250]),
        with_params("diagnose", window=400, M=150, targets=[
            LINE, {"v": [1.0, 0.0], "w": [0.0, 1.0], "n": 500}]),
    ], ids=["ends_radius_too_large", "diagnose_line_misses_window"])
    def test_refused_before_any_trial(self, tmp_path, cfg):
        # a trial on window 400 builds a 641,601-site graph: tens of MiB.
        # The runner refuses the last radius or line before trial 0.
        tracemalloc.start()
        try:
            assert exit_code(tmp_path, cfg) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_clipped_geodesic_exit_three(self, tmp_path):
        # the line x = 30 is the window's edge, so every geodesic to it
        # ends on the boundary
        cfg = with_params("diagnose", targets=[
            {"v": [1.0, 0.0], "w": [0.0, 1.0], "n": 30}])
        assert exit_code(tmp_path, cfg) == 3


class TestWorkers:
    def test_oriented_summary_counts_dead_runs(self, tmp_path, capsys):
        art = run(oriented_cfg([0.66, 0.7, 1.0], T=80),
                  out_root=str(tmp_path))
        summary = json.loads(capsys.readouterr().out.strip())
        with open(art.payloads[0]) as f:
            rows = json.load(f)["alpha"]
        assert summary["dead_runs"] == sum(r["dead_runs"] for r in rows)
        assert summary["dead_runs"] > 0


class TestFigures:
    @pytest.mark.parametrize("cfg", [
        shape_cfg(), oriented_cfg([0.7, 0.8, 0.9]), diagnose_cfg(),
    ], ids=["shape", "oriented", "diagnose"])
    def test_svg_parses_and_is_byte_stable(self, tmp_path, cfg):
        a = run(cfg, out_root=str(tmp_path / "a"), echo=False)
        b = run(cfg, out_root=str(tmp_path / "b"), echo=False)
        assert len(a.figures) == 1
        for fa, fb in zip(a.figures, b.figures):
            data = open(fa, "rb").read()
            assert data == open(fb, "rb").read()
            root = ET.fromstring(data)
            assert root.tag == "{http://www.w3.org/2000/svg}svg"
            assert len(root) > 1


# every optional field set, so that a mutation can reach each schema node
FULL = {kind: json.loads(json.dumps(dict(
    cfg, out="o", **({"trials": 2} if kind in expcli.TRIALS else {}))))
    for kind, cfg in VALID.items()}
FULL["shape"]["params"]["dist"]["pieces"] = [[1.0, 2.0, 0.5]]
FULL["construct"]["params"]["schedule"]["spread"] = 0.5
FULL["oriented"]["params"]["pc_grid"] = [0.6, 0.7]
FULL["compete"]["params"]["tie_policy"] = "strict"
FULL["diagnose"]["params"]["arc_halfwidth"] = 0.25
# finite values only: NaN and ±Infinity are refused where jsonschema
# takes them (TestNonFinite)
JUNK = [None, True, False, 0, 1, -1, 2, 3, 16, 10 ** 30, -0.5, 0.0, 0.5,
        1.0, 1.5, 2.0, 1e300, "", "x", "strict", "shape", [], [0],
        [1.0, 2.0], [[1.0, 1.0]], [1, 2, 3], {}, {"n": 1}]
IMPLEMENTED = {"$schema", "type", "properties", "required",
               "additionalProperties", "items", "minItems", "maxItems",
               "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
               "const", "enum"}


def schema_nodes(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from schema_nodes(sub)
    if "items" in schema:
        yield from schema_nodes(schema["items"])


def value_paths(value, path=()):
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        yield from value_paths(v, path + (k,))


def mutate(rng, cfg, keys):
    """Replace a node of cfg with junk, delete it, or add a key or an
    item to it; never the kind, which picks the schema."""
    path = rng.choice([p for p in value_paths(cfg) if p != ("kind",)])
    parent = cfg
    for k in path[:-1]:
        parent = parent[k]
    node = parent[path[-1]] if path else cfg
    op = rng.choice(["replace", "delete", "add"])
    if op == "add" and isinstance(node, dict):
        node[rng.choice(keys)] = copy.deepcopy(rng.choice(JUNK))
    elif op == "add" and isinstance(node, list):
        item = copy.deepcopy(rng.choice(node + JUNK))
        node.insert(rng.randint(0, len(node)), item)
    elif op == "delete" and path:
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = copy.deepcopy(rng.choice(JUNK))


class TestSchemaParity:
    """The package's validator accepts and refuses what jsonschema 4.26
    does, with its message; jsonschema is the tests' reference only."""

    def test_every_keyword_is_implemented(self):
        for kind, schema in expcli.SCHEMAS.items():
            for node in schema_nodes(schema):
                assert set(node) <= IMPLEMENTED, (kind, node)
                # compared with ==, which is jsonschema's equal on strings
                for value in [node.get("const", "")] + node.get("enum", []):
                    assert isinstance(value, str), (kind, node)

    def test_unimplemented_keyword_raises(self, monkeypatch):
        monkeypatch.setitem(expcli.SCHEMAS, "shape", dict(
            expcli.SCHEMAS["shape"], minProperties=1))
        with pytest.raises(NotImplementedError, match="minProperties"):
            validate_config(shape_cfg())

    def test_seeded_mutations_match_jsonschema(self):
        from jsonschema import Draft7Validator
        from jsonschema.exceptions import best_match
        keys = sorted({k for schema in expcli.SCHEMAS.values()
                       for node in schema_nodes(schema)
                       for k in node.get("properties", {})}
                      - {"kind"} | {"extra"})
        rng = random.Random(26)
        accepted, diffs = 0, []
        for kind in expcli.KINDS:
            reference = Draft7Validator(expcli.SCHEMAS[kind])
            for _ in range(750):
                cfg = copy.deepcopy(FULL[kind])
                for _ in range(rng.randint(1, 3)):
                    mutate(rng, cfg, keys)
                want = best_match(reference.iter_errors(cfg))
                try:
                    validate_config(cfg)
                    got = None
                except ConfigError as e:
                    got = str(e)
                accepted += got is None
                if got != (want and "config invalid for kind %s: %s" % (
                        kind, want.message)):
                    diffs.append((cfg, got, want and want.message))
        assert diffs == []
        assert 500 < accepted < 7 * 750 - 500


class TestNonFinite:
    """NaN and ±Infinity are no JSON numbers: a config file that holds
    one, or a config given to run() with one, exits 2 and writes
    nothing."""

    @pytest.mark.parametrize("cfg", [
        with_params("oriented", p_values=[float("nan")]),
        with_params("compete", dist={"atoms": [[float("nan"), 1.0]]}),
        dict(shape_cfg(), params=dict(shape_cfg()["params"], dist={
            "atoms": [[float("inf"), 1.0]]})),
        with_params("diagnose", arc_halfwidth=-float("inf")),
    ], ids=["oriented_nan", "compete_nan", "shape_infinity",
            "diagnose_minus_infinity"])
    def test_token_in_file_exit_two(self, tmp_path, capsys, cfg):
        assert exit_code(tmp_path, cfg) == 2
        assert "is not a JSON number" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="is not of type 'number'"):
            run(cfg, out_root=str(tmp_path / "o"), echo=False)
        assert not (tmp_path / "o").exists()

    def test_overflowing_literal_exit_two(self, tmp_path, capsys):
        # json reads 1e400 as float('inf'), past the token check
        path = tmp_path / "c.json"
        path.write_text(json.dumps(oriented_cfg([0.7])).replace(
            "0.7", "1e400"))
        assert main(["oriented", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "inf is not of type 'number'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
