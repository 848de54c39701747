import json
from pathlib import Path

import numpy as np
import pytest

from sparsedom import stopping
from sparsedom.campaign import CampaignConfig, _domination_record, run_campaign
from sparsedom.cli import main
from sparsedom.dyadic import DyadicInterval, Signal
from sparsedom.generate import (full_multiplier, generate_multiplier, generate_signal,
                                generate_sparse_collection)
from sparsedom.haar import HaarMultiplier
from sparsedom.serialize import (dump_json, read_collection, read_multiplier,
                                 read_signal, revalidate_certificate,
                                 write_collection, write_multiplier,
                                 write_signal)
from sparsedom.stopping import dominate_avg, dominate_square


DATA = Path(__file__).parent / "data"


def I(d, i):
    return DyadicInterval(d, i)


class TestSerialize:
    def test_signal_roundtrip(self, tmp_path):
        f = generate_signal("gaussian_noise", 5, seed=0)
        path = tmp_path / "sig.txt"
        write_signal(f, path)
        g = read_signal(path)
        assert np.array_equal(f.values, g.values)

    def test_signal_csv_row(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.0,2.0,3.0,4.0\n")
        f = read_signal(path)
        assert f.depth_J == 2
        assert np.array_equal(f.values, [1.0, 2.0, 3.0, 4.0])

    def test_signal_bad_count(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_text("1\n2\n3\n")
        with pytest.raises(ValueError):
            read_signal(path)

    def test_multiplier_roundtrip(self, tmp_path):
        T = HaarMultiplier.from_dict({I(0, 0): 0.5, I(2, 3): -1.0})
        path = tmp_path / "mult.csv"
        write_multiplier(T, path)
        T2 = read_multiplier(path)
        assert T2.intervals == T.intervals
        assert T2.coefficients == T.coefficients

    def test_collection_roundtrip(self, tmp_path):
        S = generate_sparse_collection(6, seed=1)
        path = tmp_path / "coll.csv"
        write_collection(S, path)
        S2 = read_collection(path)
        assert S2.intervals == S.intervals

    def test_certificate_revalidates(self):
        f = generate_signal("gaussian_noise", 6, seed=2)
        g = generate_signal("gaussian_noise", 6, seed=3)
        T = generate_multiplier(6, seed=4, n_intervals=30)
        for cert in (dominate_avg(T, f, g), dominate_square(T, f, g)):
            data = json.loads(dump_json(cert.to_dict()))
            assert revalidate_certificate(data)


class TestCampaign:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(trials=0).validate()
        with pytest.raises(ValueError):
            CampaignConfig(depth_J=2).validate()
        with pytest.raises(ValueError):
            CampaignConfig(modes=("nope",)).validate()

    def test_unknown_config_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": 1, "bogus": 2}))
        with pytest.raises(ValueError, match="bogus"):
            CampaignConfig.from_file(path)

    def test_deterministic_reports(self, tmp_path):
        outs = []
        for run in range(2):
            cfg = CampaignConfig(depth_J=6, trials=3, seed=11,
                                 modes=("avg", "atoms", "cz", "spmodel"),
                                 out_jsonl=str(tmp_path / f"r{run}.jsonl"),
                                 out_csv=str(tmp_path / f"r{run}.csv"))
            records, summary, ok = run_campaign(cfg)
            assert ok
            outs.append((tmp_path / f"r{run}.jsonl").read_bytes()
                        + (tmp_path / f"r{run}.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_pinned_campaign_bytes(self, tmp_path):
        # every mode at J=8; re-pin tests/data only for an intended numeric
        # change, and say so in CHANGES.md
        cfg = CampaignConfig(depth_J=8, trials=3, seed=7,
                             out_jsonl=str(tmp_path / "out.jsonl"),
                             out_csv=str(tmp_path / "out.csv"))
        _, _, ok = run_campaign(cfg)
        assert ok
        for suffix in ("jsonl", "csv"):
            pinned = DATA / f"campaign_J8_seed7.{suffix}"
            assert (tmp_path / f"out.{suffix}").read_bytes() == pinned.read_bytes(), suffix

    def test_all_modes_smoke(self, tmp_path):
        cfg = CampaignConfig(depth_J=5, trials=2, seed=3, n_intervals=20,
                             out_jsonl=str(tmp_path / "out.jsonl"))
        records, summary, ok = run_campaign(cfg)
        assert ok
        assert set(summary) == set(cfg.modes)
        lines = (tmp_path / "out.jsonl").read_text().splitlines()
        assert len(lines) == len(records)
        for line in lines:
            json.loads(line)

    def test_certificates_revalidate_on_reload(self, tmp_path):
        cfg = CampaignConfig(depth_J=6, trials=3, seed=4, n_intervals=25,
                             modes=("avg", "square", "osc", "weighted"),
                             out_jsonl=str(tmp_path / "certs.jsonl"))
        _, _, ok = run_campaign(cfg)
        assert ok
        for line in (tmp_path / "certs.jsonl").read_text().splitlines():
            data = json.loads(line)
            assert revalidate_certificate(data), data["mode"]

    def test_signal_kind_is_used(self, monkeypatch):
        drawn = []

        def spy(kind, J, **kw):
            drawn.append(kind)
            return generate_signal(kind, J, **kw)

        monkeypatch.setattr("sparsedom.campaign.generate_signal", spy)
        cfg = CampaignConfig(depth_J=5, trials=2, seed=2, n_intervals=12,
                             modes=("avg", "cz"), signal_kind="step")
        records, _, ok = run_campaign(cfg)
        assert ok and len(records) == 4
        assert len(drawn) == 8 and set(drawn) == {"step"}
        with pytest.raises(ValueError, match="signal_kind"):
            CampaignConfig(signal_kind="bogus").validate()

    def test_hard_ok_reads_every_check(self):
        f = generate_signal("gaussian_noise", 5, seed=1)
        g = generate_signal("gaussian_noise", 5, seed=2)
        cert = dominate_square(generate_multiplier(5, seed=3, n_intervals=12), f, g)
        assert _domination_record(cert)["hard_ok"] is True
        cert.checks["cs_ok"] = False
        assert _domination_record(cert)["hard_ok"] is False


class TestCli:
    def test_haar_roundtrip(self, tmp_path, capsys):
        sig = tmp_path / "f.txt"
        write_signal(generate_signal("single_mode", 3, seed=0), sig)
        rc = main(["haar", "--in", str(sig), "--depth", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["depth_J"] == 3
        assert payload["coefficients"][0]["value"] == pytest.approx(1.0)

    def test_haar_csv_format(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        rc = main(["haar", "--depth", "4", "--seed", "5",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("depth,index")

    def test_sparse_check(self, tmp_path, capsys):
        coll = tmp_path / "coll.csv"
        write_collection(generate_sparse_collection(5, seed=2), coll)
        rc = main(["sparse-check", str(coll), "--depth", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certified"]
        assert payload["carleson"] <= 2.0

    def test_dominate_modes(self, capsys):
        for mode in ("avg", "square", "weighted", "osc"):
            rc = main(["dominate", "--mode", mode, "--depth", "5",
                       "--seed", "1", "--n-intervals", "15"])
            assert rc == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["mode"] in (mode,)
            assert payload["checks"]["partition_ok"]

    @pytest.mark.parametrize("cells", [8, 64])
    def test_dominate_weight_file_of_wrong_depth(self, tmp_path, capsys, cells):
        wfile = tmp_path / "w.txt"
        wfile.write_text("\n".join(["1.0"] * cells) + "\n")
        rc = main(["dominate", "--mode", "weighted", "--depth", "5", "--seed", "1",
                   "--weight-file", str(wfile)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "weight depth" in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["avg", "square", "weighted", "osc"])
    @pytest.mark.parametrize("row", ["3,1,1.0", "5,1,1.0"])
    def test_dominate_multiplier_file_too_deep(self, tmp_path, capsys, mode, row):
        mfile = tmp_path / "m.csv"
        mfile.write_text(row + "\n")
        rc = main(["dominate", "--mode", mode, "--depth", "3", "--seed", "1",
                   "--multiplier-file", str(mfile)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "needs depth < 3" in err and "Traceback" not in err

    def test_atoms_command(self, tmp_path):
        out = tmp_path / "atoms.json"
        rc = main(["atoms", "--depth", "5", "--seed", "2", "--p", "1.0",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["checks"]["reconstruction_ok"]
        assert all("atom_values" in a for a in payload["atoms"])

    def test_cz_command(self, capsys):
        rc = main(["cz", "--depth", "5", "--seed", "3", "--alpha", "1.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["split_ok"]

    def test_weak11_command(self, capsys):
        rc = main(["weak11", "--depth", "5", "--seed", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["majority_ok"]

    def test_weak11_zero_signal(self, tmp_path, capsys):
        sig = tmp_path / "zeros.txt"
        write_signal(Signal(np.zeros(32)), sig)
        rc = main(["weak11", "--in", str(sig), "--depth", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["crosscheck_ok"] and payload["weak_quasinorm"] == 0.0

    @pytest.mark.parametrize("command", [["cz", "--alpha", "1"], ["weak11"]])
    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_signal_file(self, tmp_path, capsys, command, cell):
        sig = tmp_path / "f.txt"
        sig.write_text("1.0\n" + cell + "\n2.0\n0.5\n")
        rc = main(command + ["--in", str(sig)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["dominate", "--mode", "avg", "--f-file"],
        ["dominate", "--mode", "square", "--f-file"],
        ["dominate", "--mode", "weighted", "--f-file"],
        ["dominate", "--mode", "osc", "--f-file"],
        ["dominate", "--mode", "avg", "--g-file"],
        ["dominate", "--mode", "osc", "--g-file"],
        ["atoms", "--in"],
    ])
    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_signal_stopping_modes(self, tmp_path, capsys, command, cell):
        rows = ["1.0", "-2.0", "0.5", "3.0", "0.25", "1.5", "-1.0", "2.0"]
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("\n".join(rows) + "\n")
        bad.write_text("\n".join(rows[:5] + [cell] + rows[6:]) + "\n")
        other = (["--g-file", str(good)] if command[-1] == "--f-file" else
                 ["--f-file", str(good)] if command[-1] == "--g-file" else [])
        rc = main(command + [str(bad), "--depth", "3", "--seed", "1"] + other)
        assert rc == 2
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_overflowing_oscillation(self, tmp_path, capsys):
        # finite cells whose L^1 oscillation overflows
        sig = tmp_path / "f.txt"
        sig.write_text("\n".join(["1.5e308", "-1.5e308"] * 32) + "\n")
        with np.errstate(over="ignore"):
            rc = main(["dominate", "--mode", "osc", "--f-file", str(sig), "--depth", "6",
                       "--seed", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "sparsedom: error:" in captured.err and "overflows" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["dominate", "--mode", "avg", "--f-file", "F", "--g-file", "F"],
        ["dominate", "--mode", "square", "--f-file", "F", "--g-file", "F"],
        ["dominate", "--mode", "weighted", "--f-file", "F", "--g-file", "F"],
        ["dominate", "--mode", "osc", "--f-file", "F", "--g-file", "F"],
        ["atoms", "--in", "F"],
    ])
    def test_overflowing_haar_squares(self, tmp_path, capsys, command):
        # finite cells whose root Haar coefficient squares past the float range
        sig = tmp_path / "F.txt"
        sig.write_text("\n".join(["1e200"] * 32 + ["-1e200"] * 32) + "\n")
        rc = main([str(sig) if a == "F" else a for a in command] + ["--depth", "6"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "sparsedom: error:" in captured.err and "overflows" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("cell", ["1e200", "1e-200"])
    def test_weighted_value_out_of_float_range(self, tmp_path, capsys, cell):
        # finite weight cells whose w(I)**(1/r) overflows (or underflows to 0)
        wfile = tmp_path / "w.txt"
        wfile.write_text("\n".join([cell] * 64) + "\n")
        rc = main(["dominate", "--mode", "weighted", "--weight-file", str(wfile),
                   "--depth", "6", "--seed", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "sparsedom: error: the weighted L^r value" in captured.err
        assert "overflows" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mode", ["avg", "square", "weighted", "osc"])
    @pytest.mark.parametrize("files", [["f"], ["g"], ["f", "g"]])
    def test_dominate_takes_the_depth_of_a_loaded_signal(self, tmp_path, capsys, mode, files):
        # with no --depth, the missing signal, the multiplier and the weight
        # are generated at the loaded file's depth 6, not at the default 10
        args = ["dominate", "--mode", mode, "--seed", "1"]
        for role in files:
            path = tmp_path / f"{role}.txt"
            write_signal(generate_signal("step", 6, seed=len(args)), path)
            args += [f"--{role}-file", str(path)]
        outputs = []
        for depth in ([], ["--depth", "6"]):
            rc = main(args + depth)
            captured = capsys.readouterr()
            assert rc == 0, captured.err
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["checks"]["partition_ok"]

    @pytest.mark.parametrize("command", [
        ["dominate", "--mode", "osc", "--f-file"],
        ["dominate", "--mode", "square", "--g-file"],
        ["atoms", "--in"],
        ["haar", "--in"],
    ])
    def test_explicit_depth_disagreeing_with_a_file(self, tmp_path, capsys, command):
        sig = tmp_path / "f.txt"
        write_signal(generate_signal("gaussian_noise", 6, seed=0), sig)
        rc = main(command + [str(sig), "--depth", "5", "--seed", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--depth 5" in captured.err and "depth 6" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_stopping_failure_reported(self, tmp_path, capsys, monkeypatch):
        # osc at C=1 on this input needs one doubling (an agenda node rejects
        # itself); with none allowed the run finds no admissible C
        monkeypatch.setattr(stopping, "MAX_DOUBLINGS", 0)
        files = []
        for role, seed in (("f", 0), ("g", 1)):
            path = tmp_path / f"{role}.txt"
            write_signal(generate_signal("gaussian_noise", 5, seed=seed), path)
            files += [f"--{role}-file", str(path)]
        mult = tmp_path / "m.csv"
        write_multiplier(full_multiplier(5), mult)
        rc = main(["dominate", "--mode", "osc", *files, "--multiplier-file", str(mult),
                   "--stop-C", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("sparsedom: error: no admissible C")
        assert captured.out == ""

    def test_campaign_command(self, tmp_path, capsys):
        cfg = {"depth_J": 5, "trials": 2, "seed": 1, "modes": ["avg", "cz"],
               "n_intervals": 15}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["campaign", "--config", str(path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"]

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("SPARSEDOM_SEED", "9")
        rc = main(["haar", "--depth", "3"])
        assert rc == 0
        first = capsys.readouterr().out
        rc = main(["haar", "--depth", "3", "--seed", "9"])
        assert first == capsys.readouterr().out

    def test_invalid_config_is_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"trials": 0}))
        rc = main(["campaign", "--config", str(path)])
        assert rc == 2
        assert "trials" in capsys.readouterr().err
