import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import blockhawkes
from blockhawkes import (
    EventSequence,
    HawkesModel,
    SimConfig,
    SumExpKernel,
    model_to_dict,
    read_events_csv,
    simulate,
    write_events_csv,
)
from blockhawkes.cli import (
    _FIT_OPTIONS,
    _GOF_OPTIONS,
    _JUMP_OPTIONS,
    _SIM_OPTIONS,
    _effective_options,
    build_parser,
    main,
)
from blockhawkes.ingest import format_timestamps, write_blocks_csv

from conftest import messy_block_fixture
from test_ingest import T0, bars_from_prices


def write_price_csv_from_bars(bars, path):
    lines = ["timestamp,vwap"]
    for stamp, vwap in zip(format_timestamps(bars["timestamp"]).tolist(), bars["vwap"].tolist()):
        lines.append(f"{stamp},{vwap!r}")
    path.write_text("\n".join(lines) + "\n")


def write_model_json(path, mu, alpha, beta):
    model = HawkesModel(np.asarray(mu), SumExpKernel(np.asarray(alpha), np.asarray(beta)))
    path.write_text(json.dumps(model_to_dict(model)))
    return model


class TestCleanBlocksCommand:
    def test_messy_fixture_counts(self, tmp_path):
        in_csv = tmp_path / "blocks.csv"
        write_blocks_csv(messy_block_fixture(), in_csv)
        out_csv = tmp_path / "cleaned.csv"
        report_json = tmp_path / "report.json"
        assert main(["clean-blocks", str(in_csv), str(out_csv), str(report_json)]) == 0
        report = json.loads(report_json.read_text())
        assert report["counts"] == {"duplicates_dropped": 2, "reordered": 14, "ties": 0}
        assert set(report["manifest"]["versions"]) == {"python", "numpy", "scipy"}

    def test_rerun_on_clean_output_is_identity(self, tmp_path):
        in_csv = tmp_path / "blocks.csv"
        write_blocks_csv(messy_block_fixture(), in_csv)
        first = tmp_path / "c1.csv"
        second = tmp_path / "c2.csv"
        main(["clean-blocks", str(in_csv), str(first), str(tmp_path / "r1.json")])
        assert main(["clean-blocks", str(first), str(second), str(tmp_path / "r2.json")]) == 0
        assert first.read_bytes() == second.read_bytes()
        report = json.loads((tmp_path / "r2.json").read_text())
        assert report["duplicates_dropped"] == [] and report["reordered"] == []

    def test_header_only_input_exits_2(self, tmp_path):
        in_csv = tmp_path / "blocks.csv"
        in_csv.write_text("height,timestamp,tx_count\n")
        code = main(["clean-blocks", str(in_csv), str(tmp_path / "o.csv"), str(tmp_path / "r.json")])
        assert code == 2

    def test_malformed_rows_exit_2_with_lines(self, tmp_path, capsys):
        in_csv = tmp_path / "blocks.csv"
        in_csv.write_text("height,timestamp,tx_count\n1,2022-01-01 00:00:00,5\nbad,row,here\n")
        code = main(["clean-blocks", str(in_csv), str(tmp_path / "o.csv"), str(tmp_path / "r.json")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_bad_record_keeps_its_quoting(self, tmp_path, capsys):
        in_csv = tmp_path / "blocks.csv"
        in_csv.write_text('height,timestamp,tx_count\n1,"2022-01-01, 00:00:00",5\n')
        code = main(["clean-blocks", str(in_csv), str(tmp_path / "o.csv"), str(tmp_path / "r.json")])
        assert code == 2
        assert 'line 2: 1,"2022-01-01, 00:00:00",5\n' in capsys.readouterr().err

    def test_out_of_range_unix_seconds_exit_2_with_line(self, tmp_path, capsys):
        in_csv = tmp_path / "blocks.csv"
        in_csv.write_text("height,timestamp,tx_count\n1,99999999999999999999,5\n")
        code = main(["clean-blocks", str(in_csv), str(tmp_path / "o.csv"), str(tmp_path / "r.json")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err


    def test_year_999_output_rereads(self, tmp_path, capsys):
        # Years before 1000 are written with four digits, which the reader needs.
        raw, blocks = tmp_path / "raw.csv", tmp_path / "blocks.csv"
        raw.write_text("height,timestamp,tx_count\n1,-30631392000,5\n2,-30631391000,6\n")
        price = tmp_path / "price.csv"
        price.write_text("timestamp,vwap\n-30631392000,100.0\n-30631391700,101.0\n")
        assert main(["clean-blocks", str(raw), str(blocks), str(tmp_path / "r.json")]) == 0
        assert blocks.read_text().splitlines()[1] == "1,0999-05-01T00:00:00Z,5"
        out = tmp_path / "events.csv"
        assert main(["build-events", str(blocks), str(price), str(out)]) == 0, capsys.readouterr().err
        assert read_events_csv(out, dim=3).counts().tolist() == [2, 0, 0]


class TestExtractJumpsCommand:
    def test_defaults_match_reference_settings(self):
        assert _JUMP_OPTIONS["window_hours"][1] == 3.0
        assert _JUMP_OPTIONS["q_low"][1] == 0.10
        assert _JUMP_OPTIONS["q_high"][1] == 0.90

    def test_constant_prices_give_zero_events(self, tmp_path):
        price_csv = tmp_path / "price.csv"
        write_price_csv_from_bars(bars_from_prices([100.0] * 80), price_csv)
        out = tmp_path / "events.csv"
        assert main(["extract-jumps", str(price_csv), str(out)]) == 0
        assert out.read_text().strip() == "time_hours,mark"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_window_exits_2(self, tmp_path, value):
        blocks_csv, price_csv = tmp_path / "blocks.csv", tmp_path / "price.csv"
        write_blocks_csv(messy_block_fixture(), blocks_csv)
        write_price_csv_from_bars(bars_from_prices([100.0] * 80, start=T0), price_csv)
        out = tmp_path / "events.csv"
        argv = ["build-events", str(blocks_csv), str(price_csv), str(out), "--window-hours"]
        assert main([*argv, value]) == 2
        assert not out.exists()
        assert main([*argv, "3"]) == 0

    def test_spike_gives_one_up_event(self, tmp_path):
        amp = 1e-3
        pattern = [0.0, amp, -amp, 0.0, amp, -amp, 0.0, 0.0]
        values = np.array(pattern * 25)
        values[150] = 10 * amp
        prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(values)]))
        price_csv = tmp_path / "price.csv"
        write_price_csv_from_bars(bars_from_prices(prices), price_csv)
        out = tmp_path / "events.csv"
        assert main(["extract-jumps", str(price_csv), str(out)]) == 0
        seq = read_events_csv(out, dim=3)
        assert len(seq) == 1
        assert seq.marks[0] == 2
        # bar 151 carries the spiked return: 151 * 5 minutes
        np.testing.assert_allclose(seq.times[0], 151 * 5 / 60.0)


class TestFitCommand:
    def _events_csv(self, tmp_path, model, horizon, seed=0):
        seq = simulate(SimConfig(model, horizon, seed=seed))
        path = tmp_path / "events.csv"
        write_events_csv(seq, path)
        return path, seq

    def test_poisson_data_near_zero_norms(self, tmp_path):
        model = HawkesModel([2.0], SumExpKernel(np.zeros((1, 1, 1)), [1.0]))
        events, _ = self._events_csv(tmp_path, model, 1500.0)
        out = tmp_path / "fit.json"
        code = main([
            "fit", str(events), str(out),
            "--horizon", "1500", "--num-decays", "1", "--decay-init", "1.0",
            "--poisson-baseline",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert np.asarray(doc["kernel_norms"]).max() < 0.08
        assert abs(doc["poisson"]["mu"][0] - 2.0) < 0.2
        for key in ("mu", "alpha", "beta", "log_lik", "kernel_norms", "converged", "manifest"):
            assert key in doc

    def test_zero_outer_budget_fits_at_init(self, tmp_path):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[0.5]]]), [1.0]))
        events, _ = self._events_csv(tmp_path, model, 400.0)
        out = tmp_path / "fit.json"
        code = main([
            "fit", str(events), str(out),
            "--horizon", "400", "--num-decays", "1", "--decay-init", "0.7",
            "--outer-max-iter", "0",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["beta"] == [0.7]
        assert doc["converged"] is False

    def test_unfittable_input_exits_3(self, tmp_path, monkeypatch, capsys):
        from blockhawkes import cli as cli_module
        from blockhawkes.errors import FittingError

        model = HawkesModel([1.0], SumExpKernel(np.zeros((1, 1, 1)), [1.0]))
        events, _ = self._events_csv(tmp_path, model, 50.0)

        def boom(*args, **kwargs):
            raise FittingError("no usable iterate")

        monkeypatch.setattr(cli_module, "fit_full", boom)
        code = main(["fit", str(events), str(tmp_path / "o.json"), "--horizon", "50"])
        assert code == 3
        assert capsys.readouterr().err == "error: no usable iterate\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_inner_tol_exits_2(self, tmp_path, value):
        model = HawkesModel([1.0], SumExpKernel(np.zeros((1, 1, 1)), [1.0]))
        events, _ = self._events_csv(tmp_path, model, 50.0)
        argv = ["fit", str(events), str(tmp_path / "o.json"), "--num-decays", "1",
                "--decay-init", "1.0", "--inner-tol"]
        assert main([*argv, value]) == 2
        assert not (tmp_path / "o.json").exists()
        assert main([*argv, "1e-6"]) == 0

    def test_mismatched_decay_init_exits_2(self, tmp_path):
        model = HawkesModel([1.0], SumExpKernel(np.zeros((1, 1, 1)), [1.0]))
        events, _ = self._events_csv(tmp_path, model, 50.0)
        code = main([
            "fit", str(events), str(tmp_path / "o.json"),
            "--num-decays", "2", "--decay-init", "1.0",
        ])
        assert code == 2

    def test_config_file_precedence(self, tmp_path):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[0.4]]]), [1.0]))
        events, _ = self._events_csv(tmp_path, model, 300.0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("num_decays = 1\ndecay_init = 9.0\nouter_max_iter = 0\nhorizon = 300\n")
        out = tmp_path / "fit.json"
        assert main(["fit", str(events), str(out), "--config", str(cfg)]) == 0
        assert json.loads(out.read_text())["beta"] == [9.0]
        # explicit flag wins over the config file
        assert main([
            "fit", str(events), str(out), "--config", str(cfg), "--decay-init", "4.0",
        ]) == 0
        assert json.loads(out.read_text())["beta"] == [4.0]

    def test_misspelled_boolean_in_config_exits_2(self, tmp_path, capsys):
        model = HawkesModel([1.0], SumExpKernel(np.zeros((1, 1, 1)), [1.0]))
        events, _ = self._events_csv(tmp_path, model, 50.0)
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "o.json"
        argv = ["fit", str(events), str(out), "--config", str(cfg),
                "--num-decays", "1", "--decay-init", "1.0", "--outer-max-iter", "0"]
        cfg.write_text("poisson_baseline = ture\n")
        assert main(argv) == 2
        assert "poisson_baseline" in capsys.readouterr().err
        assert not out.exists()
        for word, present in (("Yes", True), ("on", True), ("OFF", False), ("0", False)):
            cfg.write_text(f"poisson_baseline = {word}\n")
            assert main(argv) == 0
            assert ("poisson" in json.loads(out.read_text())) is present

    def test_config_comments_blank_lines_and_a_line_without_equals(self, tmp_path, capsys):
        model = HawkesModel([1.0], SumExpKernel(np.zeros((1, 1, 1)), [1.0]))
        events, _ = self._events_csv(tmp_path, model, 50.0)
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "o.json"
        argv = ["fit", str(events), str(out), "--config", str(cfg)]
        cfg.write_text("# decays\n\nnum_decays = 1  # one\ndecay_init = 2.5\nouter_max_iter = 0\n")
        assert main(argv) == 0
        assert json.loads(out.read_text())["beta"] == [2.5]
        out.unlink()
        capsys.readouterr()
        cfg.write_text("# decays\n\nnum_decays 1\n")
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: expected 'key = value', got 'num_decays 1\\n'\n"
        )
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        model = HawkesModel([1.0], SumExpKernel(np.zeros((1, 1, 1)), [1.0]))
        events, _ = self._events_csv(tmp_path, model, 50.0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_an_option = 1\n")
        assert main(["fit", str(events), str(tmp_path / "o.json"), "--config", str(cfg)]) == 2

    def test_output_deterministic_modulo_timestamp(self, tmp_path):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[0.5]]]), [1.0]))
        events, _ = self._events_csv(tmp_path, model, 300.0)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["fit", str(events), "--horizon", "300", "--num-decays", "1", "--decay-init", "1.0"]
        assert main(argv[:2] + [str(out1)] + argv[2:]) == 0
        assert main(argv[:2] + [str(out2)] + argv[2:]) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["manifest"]["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        stamp = re.compile(r'"timestamp": "[^"]*"')
        assert stamp.sub("", out1.read_text()) == stamp.sub("", out2.read_text())
        a["manifest"].pop("timestamp")
        b["manifest"].pop("timestamp")
        assert a == b


class TestGofCommand:
    def test_true_model_passes(self, tmp_path):
        model_json = tmp_path / "model.json"
        model = write_model_json(model_json, [1.0], [[[0.5]]], [1.0])
        seq = simulate(SimConfig(model, 1500.0, seed=3))
        events = tmp_path / "events.csv"
        write_events_csv(seq, events)
        out = tmp_path / "gof.json"
        qq = tmp_path / "qq.csv"
        code = main([
            "gof", str(events), str(model_json), str(out), str(qq), "--horizon", "1500",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["model_label"] == "hawkes"
        comp = doc["components"][0]
        assert comp["ks_p_value"] > 0.01
        assert comp["slope_deviation"] < 0.05
        assert (tmp_path / "qq_c1.csv").exists()

    def test_json_keys_and_qq_csv_read_from_the_residuals(self, tmp_path):
        model_json = tmp_path / "model.json"
        model = write_model_json(model_json, [1.0, 0.5], [[[0.5, 0.2], [0.1, 0.3]]], [1.0])
        seq = simulate(SimConfig(model, 300.0, seed=6))
        events = tmp_path / "events.csv"
        write_events_csv(seq, events)
        out = tmp_path / "gof.json"
        assert main([
            "gof", str(events), str(model_json), str(out), str(tmp_path / "qq.csv"),
            "--horizon", "300",
        ]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"model_label", "components", "manifest"}
        for comp in doc["components"]:
            assert set(comp) == {
                "component", "rescaled_interarrivals", "slope", "slope_deviation",
                "ks_statistic", "ks_p_value", "degenerate",
            }
            lines = (tmp_path / f"qq_c{comp['component']}.csv").read_text().splitlines()
            assert lines[0] == "theoretical_quantile,empirical_quantile"
            empirical = [line.split(",")[1] for line in lines[1:]]
            assert empirical == [f"{x:.12g}" for x in sorted(comp["rescaled_interarrivals"])]

    def test_out_of_range_mark_exits_2_with_line(self, tmp_path, capsys):
        model_json = tmp_path / "model.json"
        write_model_json(model_json, [1.0], [[[0.5]]], [1.0])
        events = tmp_path / "events.csv"
        events.write_text("time_hours,mark\n0.5,1\n1.0,99999999999999999999\n")
        code = main(["gof", str(events), str(model_json), str(tmp_path / "gof.json"),
                     str(tmp_path / "qq.csv"), "--horizon", "2"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_wrong_model_flagged(self, tmp_path):
        model_json = tmp_path / "model.json"
        model = write_model_json(model_json, [1.0], [[[0.5]]], [1.0])
        seq = simulate(SimConfig(model, 1200.0, seed=4))
        wrong_json = tmp_path / "wrong.json"
        write_model_json(wrong_json, [0.5], [[[0.5]]], [1.0])  # half the true background
        events = tmp_path / "events.csv"
        write_events_csv(seq, events)
        out = tmp_path / "gof.json"
        code = main([
            "gof", str(events), str(wrong_json), str(out), str(tmp_path / "qq.csv"),
            "--horizon", "1200",
        ])
        assert code == 0
        assert json.loads(out.read_text())["components"][0]["slope_deviation"] > 0.1

    def test_zero_kernel_model_labeled_poisson(self, tmp_path):
        model_json = tmp_path / "model.json"
        model = write_model_json(model_json, [2.0], [[[0.0]]], [1.0])
        seq = simulate(SimConfig(model, 500.0, seed=5))
        events = tmp_path / "events.csv"
        write_events_csv(seq, events)
        out = tmp_path / "gof.json"
        assert main([
            "gof", str(events), str(model_json), str(out), str(tmp_path / "qq.csv"),
            "--horizon", "500",
        ]) == 0
        assert json.loads(out.read_text())["model_label"] == "poisson"

    def test_empty_component_flagged_exit_0(self, tmp_path):
        model_json = tmp_path / "model.json"
        m = np.zeros((1, 3, 3))
        write_model_json(model_json, [1.0, 1.0, 1.0], m, [1.0])
        seq = simulate(SimConfig(HawkesModel([2.0], SumExpKernel(np.zeros((1, 1, 1)), [1.0])), 100.0, seed=6))
        events = tmp_path / "events.csv"
        write_events_csv(seq, events)
        out = tmp_path / "gof.json"
        code = main([
            "gof", str(events), str(model_json), str(out), str(tmp_path / "qq.csv"),
            "--horizon", "100", "--dim", "3",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["components"][1]["degenerate"] is True
        assert doc["components"][2]["degenerate"] is True

    def test_invalid_model_document_exits_4(self, tmp_path):
        model_json = tmp_path / "model.json"
        model_json.write_text(json.dumps({"mu": [-1.0], "alpha": [[[0.0]]], "beta": [1.0]}))
        seq = simulate(SimConfig(HawkesModel([1.0], SumExpKernel(np.zeros((1, 1, 1)), [1.0])), 100.0, seed=7))
        events = tmp_path / "events.csv"
        write_events_csv(seq, events)
        code = main([
            "gof", str(events), str(model_json), str(tmp_path / "o.json"),
            str(tmp_path / "qq.csv"), "--horizon", "100",
        ])
        assert code == 4

    def test_unreadable_model_json_exits_2(self, tmp_path):
        model_json = tmp_path / "model.json"
        model_json.write_text("{not json")
        seq = simulate(SimConfig(HawkesModel([1.0], SumExpKernel(np.zeros((1, 1, 1)), [1.0])), 100.0, seed=8))
        events = tmp_path / "events.csv"
        write_events_csv(seq, events)
        code = main([
            "gof", str(events), str(model_json), str(tmp_path / "o.json"),
            str(tmp_path / "qq.csv"), "--horizon", "100",
        ])
        assert code == 2

    def test_bad_model_label_exits_2_and_dimension_mismatch_4(self, tmp_path, capsys):
        model_json = tmp_path / "model.json"
        write_model_json(model_json, [1.0], [[[0.5]]], [1.0])
        seq = simulate(SimConfig(HawkesModel([1.0], SumExpKernel(np.zeros((1, 1, 1)), [1.0])), 100.0, seed=9))
        events = tmp_path / "events.csv"
        write_events_csv(seq, events)
        (tmp_path / "run.cfg").write_text("model_label = bogus\n")
        argv = ["gof", str(events), str(model_json), str(tmp_path / "o.json"), str(tmp_path / "qq.csv")]
        for flags in (["--model-label", "bogus"], ["--config", str(tmp_path / "run.cfg")]):
            assert main([*argv, *flags]) == 2
            assert capsys.readouterr().err == "error: model_label must be one of ('hawkes', 'poisson')\n"
        assert main([*argv, "--dim", "3"]) == 4
        assert capsys.readouterr().err == "error: model dimension 1 != sequence 3\n"

    def test_unwritable_second_qq_file_leaves_no_output(self, tmp_path):
        model_json = tmp_path / "model.json"
        model = write_model_json(model_json, [1.0, 1.0], np.zeros((1, 2, 2)), [1.0])
        events = tmp_path / "events.csv"
        write_events_csv(simulate(SimConfig(model, 50.0, seed=3)), events)
        (tmp_path / "qq_c2.csv").mkdir()
        assert main(["gof", str(events), str(model_json), str(tmp_path / "gof.json"),
                     str(tmp_path / "qq.csv")]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv", "model.json", "qq_c2.csv"]


class TestSimulateCommand:
    def test_seed_repetition_identical_files(self, tmp_path):
        model_json = tmp_path / "model.json"
        write_model_json(model_json, [1.0], [[[0.5]]], [1.0])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", str(model_json), "--horizon", "200", "--seed", "11"]
        assert main([argv[0], argv[1], str(a)] + argv[2:]) == 0
        assert main([argv[0], argv[1], str(b)] + argv[2:]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_poisson_count_band(self, tmp_path):
        model_json = tmp_path / "model.json"
        write_model_json(model_json, [2.0], [[[0.0]]], [1.0])
        out = tmp_path / "events.csv"
        assert main(["simulate", str(model_json), str(out), "--horizon", "1000", "--seed", "1"]) == 0
        seq = read_events_csv(out, horizon=1000.0)
        assert abs(len(seq) - 2000) <= 4 * np.sqrt(2000)

    def test_unstable_model_exits_4(self, tmp_path):
        model_json = tmp_path / "model.json"
        write_model_json(model_json, [1.0], [[[1.5]]], [1.0])
        out = tmp_path / "events.csv"
        code = main(["simulate", str(model_json), str(out), "--horizon", "5", "--seed", "1"])
        assert code == 4
        assert main([
            "simulate", str(model_json), str(out), "--horizon", "1", "--seed", "1",
            "--allow-unstable",
        ]) == 0

    @pytest.mark.parametrize("alpha, beta, radius", [(0.5, 1e-300, "5e+299"), (1.25, 1.0, "1.25")])
    def test_unstable_model_error_line_is_short(self, tmp_path, capsys, alpha, beta, radius):
        # A near-zero decay makes the kernel norm 5e299: four decimals
        # printed it in 300 digits, four significant digits do not.
        model_json = tmp_path / "model.json"
        write_model_json(model_json, [1.0], [[[alpha]]], [beta])
        out = tmp_path / "events.csv"
        assert main(["simulate", str(model_json), str(out), "--horizon", "5", "--seed", "1"]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200, err
        assert f"spectral radius {radius} >= 1;" in err

    def test_invalid_model_document_exits_4(self, tmp_path):
        model_json = tmp_path / "model.json"
        model_json.write_text(json.dumps({"mu": [-1.0], "alpha": [[[0.0]]], "beta": [1.0]}))
        out = tmp_path / "o.csv"
        assert main(["simulate", str(model_json), str(out), "--horizon", "5", "--seed", "1"]) == 4

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", "1"],
            ["--horizon", "5", "--seed", "1", "--max-events", "0"],
            ["--horizon", "-5", "--seed", "1"],
            ["--horizon", "nan", "--seed", "1"],
            ["--horizon", "5", "--seed", "-1"],
        ],
        ids=["no-horizon", "max-events-0", "negative-horizon", "nan-horizon", "negative-seed"],
    )
    def test_missing_required_flags_exit_2(self, tmp_path, flags):
        model_json = tmp_path / "model.json"
        write_model_json(model_json, [1.0], [[[0.0]]], [1.0])
        out = tmp_path / "o.csv"
        assert main(["simulate", str(model_json), str(out), *flags]) == 2
        assert not out.exists()

    def test_count_numpy_cannot_draw_exits_2(self, tmp_path, capsys):
        model_json = tmp_path / "model.json"
        write_model_json(model_json, [1.0], [[[0.5]]], [1.0])
        out = tmp_path / "o.csv"
        assert main(["simulate", str(model_json), str(out), "--horizon", "1e20", "--seed", "1"]) == 2
        assert "numpy's limit" in capsys.readouterr().err
        assert not out.exists()


class TestBuildEventsCommand:
    def test_pipeline_produces_trivariate_csv(self, tmp_path):
        blocks_csv = tmp_path / "blocks.csv"
        write_blocks_csv(messy_block_fixture(), blocks_csv)
        amp = 1e-3
        pattern = [0.0, amp, -amp, 0.0, amp, -amp, 0.0, 0.0]
        values = np.array(pattern * 25)
        values[120] = 12 * amp
        prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(values)]))
        price_csv = tmp_path / "price.csv"
        write_price_csv_from_bars(bars_from_prices(prices, start=T0), price_csv)
        out = tmp_path / "events.csv"
        code = main([
            "build-events", str(blocks_csv), str(price_csv), str(out),
            "--start", "2022-01-20 09:00:00", "--end", "2022-02-01 17:00:00",
        ])
        assert code == 0
        seq = read_events_csv(out, dim=3)
        counts = seq.counts()
        assert counts[0] == 40  # cleaned blocks
        assert counts[1] >= 1  # the spike

    def test_price_bars_out_of_order_exit_2(self, tmp_path, capsys):
        blocks_csv, price_csv = tmp_path / "blocks.csv", tmp_path / "price.csv"
        write_blocks_csv(messy_block_fixture(), blocks_csv)
        bars = bars_from_prices([100.0] * 80, start=T0)
        write_price_csv_from_bars(bars[[0, 2, 1, *range(3, 80)]], price_csv)
        out = tmp_path / "events.csv"
        assert main(["build-events", str(blocks_csv), str(price_csv), str(out)]) == 2
        assert capsys.readouterr().err == "error: price bars must be strictly increasing in time\n"
        assert not out.exists()


class TestRoundTrip:
    def test_simulate_fit_gof_loop_closes(self, tmp_path):
        model_json = tmp_path / "truth.json"
        write_model_json(model_json, [1.0], [[[0.6]]], [1.2])
        events = tmp_path / "events.csv"
        assert main([
            "simulate", str(model_json), str(events), "--horizon", "2500", "--seed", "17",
        ]) == 0
        assert len(read_events_csv(events)) >= 5000
        fit_json = tmp_path / "fit.json"
        assert main([
            "fit", str(events), str(fit_json), "--horizon", "2500",
            "--num-decays", "1", "--decay-init", "1.0",
        ]) == 0
        gof_json = tmp_path / "gof.json"
        assert main([
            "gof", str(events), str(fit_json), str(gof_json), str(tmp_path / "qq.csv"),
            "--horizon", "2500",
        ]) == 0
        doc = json.loads(gof_json.read_text())
        assert doc["components"][0]["slope_deviation"] < 0.1


class TestErrorBoundary:
    """An undecodable input of any kind, a model file that is not JSON, or an
    output in a missing directory, exits 2 with one error line from every
    command, never a traceback; a bad input is named by its path, and the run
    leaves none of its outputs."""

    CASES = {
        "clean-blocks-blocks": "clean-blocks {bad} {d}/o.csv {d}/r.json",
        "clean-blocks-out": "clean-blocks {d}/blocks.csv {missing}/o.csv {d}/r.json",
        "clean-blocks-report": "clean-blocks {d}/blocks.csv {d}/o.csv {missing}/r.json",
        "extract-jumps-price": "extract-jumps {bad} {d}/o.csv",
        "extract-jumps-config": "extract-jumps {d}/price.csv {d}/o.csv --config {bad}",
        "extract-jumps-out": "extract-jumps {d}/price.csv {missing}/o.csv",
        "build-events-blocks": "build-events {bad} {d}/price.csv {d}/o.csv",
        "build-events-price": "build-events {d}/blocks.csv {bad} {d}/o.csv",
        "build-events-config": "build-events {d}/blocks.csv {d}/price.csv {d}/o.csv --config {bad}",
        "build-events-out": "build-events {d}/blocks.csv {d}/price.csv {missing}/o.csv",
        "fit-events": "fit {bad} {d}/o.json",
        "fit-config": "fit {d}/events.csv {d}/o.json --config {bad}",
        "fit-out": "fit {d}/events.csv {missing}/o.json --num-decays 1 --decay-init 1 --outer-max-iter 0",
        "gof-events": "gof {bad} {d}/model.json {d}/o.json {d}/qq.csv",
        "gof-model": "gof {d}/events.csv {bad} {d}/o.json {d}/qq.csv",
        "gof-notjson": "gof {d}/events.csv {notjson} {d}/o.json {d}/qq.csv",
        "gof-config": "gof {d}/events.csv {d}/model.json {d}/o.json {d}/qq.csv --config {bad}",
        "gof-out": "gof {d}/events.csv {d}/model.json {missing}/o.json {d}/qq.csv",
        "gof-qq": "gof {d}/events.csv {d}/model.json {d}/o.json {missing}/qq.csv",
        "simulate-model": "simulate {bad} {d}/o.csv --horizon 5 --seed 1",
        "simulate-notjson": "simulate {notjson} {d}/o.csv --horizon 5 --seed 1",
        "simulate-config": "simulate {d}/model.json {d}/o.csv --config {bad}",
        "simulate-out": "simulate {d}/model.json {missing}/o.csv --horizon 5 --seed 1",
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, case):
        write_blocks_csv(messy_block_fixture(), tmp_path / "blocks.csv")
        write_price_csv_from_bars(bars_from_prices([100.0] * 80, start=T0), tmp_path / "price.csv")
        model = write_model_json(tmp_path / "model.json", [1.0], [[[0.5]]], [1.0])
        write_events_csv(simulate(SimConfig(model, 50.0, seed=1)), tmp_path / "events.csv")
        (tmp_path / "bad").write_bytes(b"\xff\n")
        (tmp_path / "notjson.json").write_text("{mu: 1")
        inputs = sorted(p.name for p in tmp_path.iterdir())
        places = {"d": tmp_path, "bad": tmp_path / "bad", "notjson": tmp_path / "notjson.json",
                  "missing": tmp_path / "missing"}
        assert main([word.format(**places) for word in self.CASES[case].split()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if "{bad}" in self.CASES[case]:
            assert err.startswith(f"error: {places['bad']}: not valid text: ") and "byte 0xff" in err
        elif "{notjson}" in self.CASES[case]:
            assert err.startswith(f"error: {places['notjson']}: not a JSON document: "), err
        else:
            assert f"{tmp_path}/missing/" in err, err
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs


class TestAnyModelDocument:
    """Whatever JSON value the model file holds, ``gof`` and ``simulate``
    exit with one of the documented codes and, when they fail, one error line."""

    DOCUMENTS = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
            st.sampled_from(["mu", "alpha", "beta"]) | st.text(max_size=4), inner, max_size=4),
        max_leaves=12,
    )

    @settings(max_examples=40, deadline=None)
    @given(doc=DOCUMENTS)
    def test_exit_code_and_one_error_line(self, tmp_path_factory, doc):
        d = tmp_path_factory.mktemp("doc")
        write_events_csv(EventSequence([0.5, 1.0, 2.5, 4.0], [1, 1, 1, 1], 5.0, 1), d / "events.csv")
        (d / "model.json").write_text(json.dumps(doc))
        for argv in (
            ["gof", d / "events.csv", d / "model.json", d / "gof.json", d / "qq.csv"],
            ["simulate", d / "model.json", d / "sim.csv", "--horizon", "5", "--seed", "1",
             "--max-events", "50"],
        ):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([str(a) for a in argv])
            assert code in (0, 2, 3, 4), (argv[0], code)
            lines = err.getvalue().splitlines()
            if code:
                assert lines and lines[0].startswith("error: "), (argv[0], lines)
                assert sum(line.startswith("error:") for line in lines) == 1, (argv[0], lines)

    @pytest.mark.parametrize(
        "text, code",
        [
            ('{"mu": [1' + "0" * 400 + '], "alpha": [[[0.5]]], "beta": [1.0]}', 4),
            ('{"mu": [' + "1" * 5000 + "]}", 2),
            ("[" * 100000, 2),
        ],
        ids=["integer-beyond-float", "integer-too-long", "nested-too-deep"],
    )
    def test_documents_past_the_parsers_limits(self, tmp_path, capsys, text, code):
        (tmp_path / "model.json").write_text(text)
        argv = ["simulate", str(tmp_path / "model.json"), str(tmp_path / "o.csv"),
                "--horizon", "5", "--seed", "1"]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err[:300]


class TestProcessStart:
    def test_cli_import_leaves_scipy_submodules_unloaded(self):
        # Each is imported by the functions that run it, so commands that
        # never fit, solve states, integrate or test do not pay for it.
        src = str(Path(blockhawkes.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, blockhawkes.cli; print([m for m in "
                "('scipy.optimize', 'scipy.integrate', 'scipy.special', 'scipy.linalg') "
                "if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n"


class TestOptionTables:
    # sha256 of each command's default effective options: the config digest
    # its manifest records.  Pinned so that building the option tables from
    # JumpConfig, FitConfig and SimConfig cannot move a default unnoticed.
    PINNED = {
        "fit": (_FIT_OPTIONS, ["events.csv", "fit.json"],
                "e00ef05b0633cd43809c5a71560eb751cf7f4d1369c7906d3f1991082c6b8448"),
        "gof": (_GOF_OPTIONS, ["events.csv", "fit.json", "gof.json", "qq.csv"],
                "2e504cf014da1f42750f3bab08628cca34963971681924d9ff40f45abf9de489"),
        "build-events": (_JUMP_OPTIONS, ["blocks.csv", "price.csv", "events.csv"],
                         "10b04d8adfb8bbb6a12b65681d7bb3311374bdb0b594d4b9e8ac008914eee4b4"),
        "simulate": (_SIM_OPTIONS, ["fit.json", "sim.csv"],
                     "eec1c2a03e69240eaf2e984b7135da0d54a2d581e6907e706047f93e661269f7"),
    }

    def test_default_config_digests_pinned(self):
        for command, (spec, positionals, digest) in self.PINNED.items():
            opts = _effective_options(build_parser().parse_args([command, *positionals]), spec)
            canonical = json.dumps(opts, sort_keys=True, default=str)
            assert hashlib.sha256(canonical.encode()).hexdigest() == digest, command

    def test_extract_jumps_is_build_events_without_blocks(self, tmp_path, capsys):
        blocks_csv = tmp_path / "blocks.csv"
        write_blocks_csv(messy_block_fixture(), blocks_csv)
        amp = 1e-3
        values = np.array([0.0, amp, -amp, 0.0, amp, -amp, 0.0, 0.0] * 25)
        values[120] = 12 * amp
        values[60] = -12 * amp
        prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(values)]))
        price_csv = tmp_path / "price.csv"
        write_price_csv_from_bars(bars_from_prices(prices, start=T0), price_csv)
        window = ["--start", "2022-01-20 09:00:00", "--end", "2022-02-01 17:00:00"]
        events, jumps = tmp_path / "events.csv", tmp_path / "jumps.csv"
        assert main(["build-events", str(blocks_csv), str(price_csv), str(events), *window]) == 0
        assert main(["extract-jumps", str(price_csv), str(jumps), *window]) == 0
        both, alone = read_events_csv(events, dim=3), read_events_csv(jumps, dim=3)
        _, up, down = both.counts()
        assert up >= 1 and down >= 1
        printed = capsys.readouterr().out.splitlines()[-1]
        assert printed.startswith(f"{up} up / {down} down jumps from 200 returns (0 grid gaps, ")
        keep = both.marks > 1
        np.testing.assert_array_equal(alone.times, both.times[keep])
        np.testing.assert_array_equal(alone.marks, both.marks[keep])


class TestPinnedOutputs:
    """sha256 of every file the ingest commands and ``gof`` write, on the
    messy block fixture and a fixed-seed bar series.  The clean-blocks and
    gof reports are hashed with their manifests (which hold a timestamp)
    removed."""

    PINNED = {
        "clean.json": "6592311520feddf4a1694733670fbe7176edeb6946f808e99b55c7de07ef8865",
        "gof.json": "471703d238d315a31279cb94613cbcc6a0459be8e798ab0405e180ab4d4d7b0f",
        "blocks.csv": "ba68a53b292a9091ce5a6311dad766da5ce45a206f134203514647e0bdbfce9d",
        "events.csv": "ddd28915b3e5bf30930b4f5bd6ba7ceb8bae30d11efd202bcfe66bb855c8b99a",
        "jumps.csv": "07c203aad46ab956d01455a9fef77857e393668819f128d6c4d6f3524f62f3f3",
        "qq_c1.csv": "48941aa0d98622a1701c8166950ca20c65b3bbd41e522d005b196bb230a60dde",
        "qq_c2.csv": "636e68158a1b7f2f1abb6c586e8032834b860a79c79c142d7506f026c6e21d0e",
        "qq_c3.csv": "2988fcf897bda60cad95add8b931d57bffc04c4a4d19a4c1c31245eeae0dc884",
    }

    def test_output_digests(self, tmp_path):
        write_blocks_csv(messy_block_fixture(), tmp_path / "raw.csv")
        rng = np.random.default_rng(720)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 1e-3, 721) * rng.choice([0.5, 2.0], 721)))
        start = T0.replace(month=1, day=20, hour=8)
        write_price_csv_from_bars(bars_from_prices(prices, start=start), tmp_path / "price.csv")
        window = ["--start", "2022-01-20T08:00:00Z", "--end", "2022-01-22T20:00:00Z"]
        write_model_json(tmp_path / "model.json", [2.0, 1.0, 1.0], np.full((1, 3, 3), 0.2), [3.0])
        d = {name: str(tmp_path / name) for name in ("raw.csv", "price.csv", "model.json", *self.PINNED)}
        for argv in (
            ["clean-blocks", d["raw.csv"], d["blocks.csv"], d["clean.json"]],
            ["build-events", d["blocks.csv"], d["price.csv"], d["events.csv"], *window],
            ["extract-jumps", d["price.csv"], d["jumps.csv"]],
            ["gof", d["events.csv"], d["model.json"], d["gof.json"],
             str(tmp_path / "qq.csv"), "--horizon", "60", "--dim", "3"],
        ):
            assert main(argv) == 0, argv[0]
        for name in ("clean.json", "gof.json"):
            report = json.loads((tmp_path / name).read_text())
            del report["manifest"]
            (tmp_path / name).write_text(json.dumps(report, sort_keys=True))
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.PINNED
        }
        assert digests == self.PINNED
