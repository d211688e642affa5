import json

import numpy as np
import pytest

import blockmax as bm
from blockmax import MaximaSample, WorkflowConfig, render_tables, run_workflow
from blockmax.workflow import _sig10


@pytest.fixture(scope="module")
def station_like_sample():
    return bm.sample(bm.GevParams(79.0, 21.0, 0.0), 129, seed=101)


@pytest.fixture(scope="module")
def full_report(station_like_sample):
    config = WorkflowConfig(
        boot_b=99,
        seed=5,
        order_x=100.0,
        order_ranks=(2, 4, 5, 8, 10),
        holdout=(106.2, 104.0, 60.8, 73.8),
    )
    return run_workflow(station_like_sample, config)


class TestReport:
    def test_sections_present(self, full_report):
        for key in ("input", "fits", "model_selection", "resampling", "correction",
                    "return_levels", "diagnostics", "order_statistics", "holdout"):
            assert key in full_report

    def test_fits_and_selection_consistent(self, full_report):
        sel = full_report["model_selection"]
        d = sel["lrt"]["D"]
        gum, gev = full_report["fits"]["gumbel"], full_report["fits"]["gev"]
        assert d == pytest.approx(2 * (gum["nllh"] - gev["nllh"]), abs=1e-5)
        assert sel["aic"]["gumbel"] == pytest.approx(2 * gum["nllh"] + 4, abs=1e-5)
        assert sel["aic"]["gev"] == pytest.approx(2 * gev["nllh"] + 6, abs=1e-5)
        assert sel["selected"] in ("gev", "gumbel")

    def test_numbers_rounded_to_ten_digits(self, full_report):
        text = json.dumps(full_report)
        for token in json.loads(text)["return_levels"]["rows"]:
            assert token["level"] == _sig10(token["level"])

    def test_json_serializable_and_deterministic(self, station_like_sample):
        config = WorkflowConfig(boot_b=49, seed=9)
        a = json.dumps(run_workflow(station_like_sample, config), indent=2)
        b = json.dumps(run_workflow(station_like_sample, config), indent=2)
        assert a == b

    def test_seed_changes_bootstrap_only(self, station_like_sample):
        r1 = run_workflow(station_like_sample, WorkflowConfig(boot_b=49, seed=1))
        r2 = run_workflow(station_like_sample, WorkflowConfig(boot_b=49, seed=2))
        assert r1["fits"] == r2["fits"]
        assert r1["resampling"]["bootstrap"]["bias"] != r2["resampling"]["bootstrap"]["bias"]
        assert r1["resampling"]["jackknife"] == r2["resampling"]["jackknife"]

    def test_empty_periods_omit_section(self, station_like_sample):
        report = run_workflow(station_like_sample, WorkflowConfig(boot_b=0, periods=()))
        assert report["return_levels"] is None
        assert "ReturnLevelCurve" not in report["diagnostics"]

    def test_no_resampling_requested(self, station_like_sample):
        report = run_workflow(
            station_like_sample,
            WorkflowConfig(boot_b=0, run_jackknife=False, bias_correct="off"),
        )
        assert report["resampling"] is None
        assert report["correction"]["applied"] == []
        assert report["return_levels"]["basis"] == "raw_fit"

    def test_holdout_comparisons(self, full_report):
        holdout = full_report["holdout"]
        assert holdout["values"] == [106.2, 104.0, 60.8, 73.8]
        for comp in holdout["comparisons"]:
            assert len(comp["under"]) == 4
        # larger periods dominate: the under-count never decreases
        counts = [sum(c["under"]) for c in holdout["comparisons"]]
        assert counts == sorted(counts)

    def test_env_seed_fallback(self, station_like_sample, monkeypatch):
        monkeypatch.setenv("EVT_SEED", "77")
        report = run_workflow(station_like_sample, WorkflowConfig(boot_b=9))
        assert report["config"]["seed"] == 77

    def test_forced_model(self, station_like_sample):
        report = run_workflow(
            station_like_sample,
            WorkflowConfig(model="gev", boot_b=0, run_jackknife=False),
        )
        assert report["model_selection"]["selected"] == "gev"
        assert report["model_selection"]["forced"] is True
        assert report["order_statistics"] is None

    def test_stage_error_tagged(self):
        # n = 12 passes the fit floor but jackknife refits drop to n = 11;
        # use a sample too small to fit at all to trip the fit stage
        tiny = MaximaSample(np.linspace(1.0, 2.0, 5))
        with pytest.raises(bm.WorkflowError) as err:
            run_workflow(tiny, WorkflowConfig())
        assert err.value.stage == "fit"

    def test_one_bootstrap_replicate_is_an_error(self, station_like_sample):
        # boot_b=0 skips the bootstrap; any other count below 2 is rejected
        with pytest.raises(bm.WorkflowError, match="at least 2 replicates") as err:
            run_workflow(station_like_sample, WorkflowConfig(boot_b=1, run_jackknife=False))
        assert err.value.stage == "resampling"


class TestTables:
    def test_tables_only_use_report_numbers(self, full_report):
        text = render_tables(full_report)
        blob = json.dumps(full_report)
        for key_number in (
            full_report["model_selection"]["lrt"]["D"],
            full_report["model_selection"]["aic"]["gumbel"],
            full_report["return_levels"]["rows"][0]["level"],
            full_report["resampling"]["jackknife"]["bias"][1],
            full_report["order_statistics"]["rows"][0]["prob"],
        ):
            assert f"{key_number:.10g}" in text
            assert f"{key_number:.10g}" in blob or repr(key_number) in blob

    def test_tables_mention_sections(self, full_report):
        text = render_tables(full_report)
        for heading in ("Model comparison", "Likelihood-ratio test",
                        "Resampling bias", "Return levels", "Order statistics", "Holdout"):
            assert heading in text


class TestSelectionMonteCarlo:
    def test_gumbel_data_selects_gumbel(self):
        # under a true Gumbel law the 5% test keeps the two-parameter model
        config = WorkflowConfig(boot_b=0, run_jackknife=False, periods=(),
                                bias_correct="off")
        chosen = []
        for seed in range(200):
            s = bm.sample(bm.GevParams(60.0, 12.0, 0.0), 120, seed=seed)
            report = run_workflow(s, config)
            chosen.append(report["model_selection"]["selected"])
        rate = chosen.count("gumbel") / len(chosen)
        assert 0.88 <= rate <= 0.995
