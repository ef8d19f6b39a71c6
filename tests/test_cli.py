import functools
import inspect
import json
import math
import pathlib

import pytest

from cdlab import cli, measures, universality
from cdlab.cli import EXPERIMENTS, ConfigError, load_config, main, parse_config, run_experiment
from cdlab.limit_kernels import build_limit_kernel

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _write(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(EXPERIMENTS)
    for line, (name, run) in zip(lines, EXPERIMENTS.items()):
        assert line.split()[0] == name
        assert line.endswith(run.__doc__)


def test_identities_is_an_experiment_not_a_command(capsys):
    # the suites run as `cdlab run` of an identities config, with module_filter and seed
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--filter", "special_fn"])
    assert exc.value.code == 2
    assert "invalid choice: 'identities'" in capsys.readouterr().err


def test_packaged_configs_load():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert paths
    for path in paths:
        assert load_config(path).experiment in EXPERIMENTS


def test_unknown_identity_module_is_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config({"experiment": "identities", "module_filter": "nonexistent"})
    assert exc.value.field == "module_filter"
    path = _write(tmp_path, {"experiment": "identities", "module_filter": "nonexistent",
                             "output_dir": str(tmp_path / "id")})
    assert main(["run", "--config", path]) == 2


def test_config_validation_names_field(tmp_path):
    path = _write(tmp_path, {"experiment": "bulk", "tolerance": -1.0})
    assert main(["run", "--config", path]) == 2
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.field == "tolerance"


def test_config_validation_grid_points():
    with pytest.raises(ConfigError) as exc:
        parse_config({"experiment": "bulk", "grid": {"points_per_axis": 2}})
    assert exc.value.field == "grid.points_per_axis"


def test_config_unknown_experiment():
    with pytest.raises(ConfigError) as exc:
        parse_config({"experiment": "frobnicate"})
    assert exc.value.field == "experiment"


def test_config_defaults():
    cfg = parse_config({"experiment": "bulk"})
    assert cfg.settings["measure"]["name"] == "legendre"
    assert cfg.settings["n_values"] == (50, 100, 200)
    assert cfg.settings["tolerance"] == 0.05


def _declared_defaults(run):
    _, *declared = inspect.signature(run).parameters.values()
    return {p.name: p.default for p in declared}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_declared_defaults_pass_the_value_checks(name):
    # the runner's keyword defaults are the only defaults, and they are valid
    defaults = _declared_defaults(EXPERIMENTS[name])
    assert parse_config({"experiment": name}).settings == defaults


def test_accepted_settings_are_the_runner_keywords():
    # each experiment also takes output_dir
    assert sum(len(_declared_defaults(run)) + 1 for run in EXPERIMENTS.values()) <= 43
    assert "tolerance" not in _declared_defaults(EXPERIMENTS["identities"])
    assert "measure" not in _declared_defaults(EXPERIMENTS["hard_edge"])


@pytest.mark.parametrize("experiment, unread", [
    ("bulk", "k_max"),
    ("hard_edge", "measure"),
    ("fisher_hartwig", "grid"),
    ("jump", "scaling"),
    ("opuc_bulk", "betas"),
    ("opuc_bulk", "measure"),
    ("sparse", "measure"),
    ("schrodinger", "measure"),
    ("identities", "grid"),
])
def test_field_the_experiment_does_not_read_is_rejected(tmp_path, experiment, unread):
    raw = {"experiment": experiment, unread: {}, "output_dir": str(tmp_path / "out")}
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.field == unread
    assert main(["run", "--config", _write(tmp_path, raw)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["hard_edge", "fisher_hartwig", "opuc_bulk"])
def test_xi_fixed_by_the_measure_is_not_a_setting(tmp_path, experiment):
    # the hard edge, the singular point and the free circle kernel fix xi at 0
    raw = {"experiment": experiment, "xi": 0.0, "output_dir": str(tmp_path / "out")}
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.field == "xi"
    assert main(["run", "--config", _write(tmp_path, raw)]) == 2


@pytest.mark.parametrize("raw, field", [
    ({"experiment": "sparse", "v_exponent": "x"}, "v_exponent"),
    ({"experiment": "sparse", "ratio": 1.0}, "ratio"),
    ({"experiment": "hard_edge", "betas": 2.0}, "betas"),
    ({"experiment": "hard_edge", "betas": []}, "betas"),
    ({"experiment": "hard_edge", "params": {"betas": [1.5]}}, "params"),
    ({"experiment": "bulk", "n_values": []}, "n_values"),
    ({"experiment": "bulk", "grid": {"points": 9}}, "grid.points"),
    ({"experiment": "bulk", "scaling": {"eta": 0.5, "width": 1.0}}, "scaling.width"),
    ({"experiment": "bulk", "measure": {"name": 3}}, "measure.name"),
    ({"experiment": "jump", "measure": {"name": "hermite"}}, "measure.name"),
    ({"experiment": "identities", "seed": -1}, "seed"),
    ({"experiment": "bulk", "measure": {"name": "legendre", "params": {"cutoff": 5}}},
     "measure.params"),
    ({"experiment": "bulk", "measure": {"name": "power_hard_edge", "params": {"beta": 0}}},
     "measure.params"),
    ({"experiment": "bulk", "measure": {"name": "pure_point_bulk", "params": {"cutoff": 0}}},
     "measure.params"),
    ({"experiment": "jump", "measure": {"name": "jump", "params": {"sigma_minus": -0.5}}},
     "measure.params"),
    ({"experiment": "jump", "measure": {"name": "jump", "params": {"sigma_plus": "x"}}},
     "measure.params"),
    ({"experiment": "bulk", "measure": {"name": "power_hard_edge", "params": {"beta": math.inf}}},
     "measure.params"),
    ({"experiment": "bulk", "measure": {"name": "power_hard_edge", "params": {"beta": math.nan}}},
     "measure.params"),
    ({"experiment": "bulk", "measure": {"name": "even_fh", "params": {"beta": math.inf}}},
     "measure.params"),
    ({"experiment": "jump", "measure": {"name": "jump", "params": {"sigma_plus": math.inf}}},
     "measure.params"),
    ({"experiment": "jump", "measure": {"name": "jump", "params": {"sigma_minus": math.nan}}},
     "measure.params"),
    ({"experiment": "bulk", "scaling": {"beta": 1.5}}, "scaling.beta"),
    ({"experiment": "fisher_hartwig", "k_max": 31}, "k_max"),
    ({"experiment": "bulk", "xi": math.nan}, "xi"),
    ({"experiment": "bulk", "n_values": [math.inf]}, "n_values"),
    ({"experiment": "sparse", "v_exponent": math.nan}, "v_exponent"),
    ({"experiment": "hard_edge", "xi": math.nan}, "xi"),
], ids=["v_exponent", "ratio", "betas_scalar", "betas_empty", "params", "n_values_empty",
        "grid_key", "scaling_key", "measure_name", "measure_unknown", "seed_negative",
        "gallery_key", "gallery_beta", "gallery_cutoff", "gallery_sigma", "gallery_not_number",
        "gallery_beta_inf", "gallery_beta_nan", "gallery_even_fh_inf", "gallery_sigma_inf",
        "gallery_sigma_nan", "scaling_beta", "k_max_beyond_bessel_zeros", "xi_nan",
        "n_values_inf", "v_exponent_nan", "hard_edge_xi_nan"])
def test_bad_value_exits_2(tmp_path, raw, field):
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.field == field
    assert main(["run", "--config", _write(tmp_path, raw)]) == 2


def test_mapping_setting_is_laid_over_its_default():
    cfg = parse_config({"experiment": "bulk", "grid": {"points_per_axis": 9},
                        "measure": {"name": "chebyshev"}})
    assert cfg.settings["grid"] == {"half_width": 2.0, "points_per_axis": 9}
    assert cfg.settings["measure"] == {"name": "chebyshev", "params": {}}


def test_schrodinger_reads_top_level_xi(tmp_path):
    # the top-level xi was dropped and the run reported xi=1.0
    assert parse_config({"experiment": "schrodinger"}).settings["xi"] == 1.0
    cfg = parse_config({"experiment": "schrodinger", "xi": 2, "n_values": [20],
                        "grid": {"half_width": 1.0, "points_per_axis": 3},
                        "output_dir": str(tmp_path / "s")})
    lines, _, _ = run_experiment(cfg)
    assert "rescaled kernel at xi=2.0 -> sine kernel" in lines[1]


def test_bulk_run_small_and_deterministic(tmp_path):
    cfg_dict = {
        "experiment": "bulk",
        "measure": {"name": "legendre", "params": {}},
        "n_values": [20, 40],
        "grid": {"half_width": 1.0, "points_per_axis": 4},
        "tolerance": 0.2,
        "scaling": {"eta": 0.5},
        "output_dir": str(tmp_path / "out1"),
    }
    path = _write(tmp_path, cfg_dict)
    assert main(["run", "--config", path]) == 0
    report = json.loads((tmp_path / "out1" / "report.json").read_text())
    assert report["passed"] is True
    csv1 = (tmp_path / "out1" / "kernel_40.csv").read_text()
    assert csv1.startswith("re_z,im_z,re_w,im_w,re_K,im_K")
    # identical config, second run -> byte-identical CSV
    cfg_dict["output_dir"] = str(tmp_path / "out2")
    path2 = _write(tmp_path, cfg_dict)
    assert main(["run", "--config", path2]) == 0
    csv2 = (tmp_path / "out2" / "kernel_40.csv").read_text()
    assert csv1 == csv2


def test_bulk_run_estimates_the_scaling_without_a_pin(tmp_path):
    # no scaling.eta: h comes from the local_scaling estimates of the measure
    reports = []
    for out in ("out1", "out2"):
        raw = {"experiment": "bulk", "n_values": [20, 40], "tolerance": 0.2,
               "grid": {"half_width": 1.0, "points_per_axis": 4},
               "output_dir": str(tmp_path / out)}
        assert main(["run", "--config", _write(tmp_path, raw)]) == 0
        reports.append((tmp_path / out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    scaling = json.loads(reports[0])["data"]["scaling"]
    assert abs(scaling["beta_hat"] - 1.0) <= 1e-2
    assert abs(scaling["sigma_minus_hat"] - 0.5) <= 1e-2
    assert abs(scaling["sigma_plus_hat"] - 0.5) <= 1e-2


def test_bulk_run_without_a_pin_prints_plain_numbers(tmp_path, capsys):
    # Measure.total_mass returned np.float64, and the scaling line printed its repr
    raw = {"experiment": "bulk", "n_values": [20, 40], "tolerance": 0.2,
           "output_dir": str(tmp_path / "out")}
    assert main(["run", "--config", _write(tmp_path, raw)]) == 0
    lines = json.loads((tmp_path / "out" / "report.json").read_text())["lines"]
    scaling = [line for line in lines if line.startswith("[INFO] scaling data:")]
    assert len(scaling) == 1 and "'sigma_minus_hat': 0.4999" in scaling[0]
    assert "np.float64(" not in capsys.readouterr().out
    assert not any("np.float64(" in line for line in lines)


def test_run_builds_the_gallery_measure_once(tmp_path, monkeypatch):
    # parse_config builds the measure to check its parameters; the run reuses it
    calls = []
    builder = measures._GALLERY["legendre"]

    @functools.wraps(builder)
    def counted(**params):
        calls.append(params)
        return builder(**params)

    monkeypatch.setitem(measures._GALLERY, "legendre", counted)
    cli._built.cache_clear()
    raw = {"experiment": "bulk", "n_values": [20, 40], "scaling": {"eta": 0.5},
           "grid": {"half_width": 1.0, "points_per_axis": 4}, "tolerance": 0.2,
           "output_dir": str(tmp_path / "out")}
    assert main(["run", "--config", _write(tmp_path, raw)]) == 0
    assert calls == [{}]
    cli._built.cache_clear()


def test_identities_experiment_exit_status(tmp_path):
    cfg = parse_config({
        "experiment": "identities",
        "module_filter": "measures",
        "seed": 3,
        "output_dir": str(tmp_path / "id"),
    })
    lines, passed, data = run_experiment(cfg)
    assert passed
    assert all("measures." in key for key in data)


def test_identities_experiment_canonical_filter(tmp_path):
    # the canonical-system suite is the identities experiment with a filter;
    # there is no separate canonical_identities experiment
    cfg = parse_config({
        "experiment": "identities",
        "module_filter": "canonical",
        "output_dir": str(tmp_path / "cid"),
    })
    lines, passed, data = run_experiment(cfg)
    assert passed
    assert data and all(key.startswith("canonical.") for key in data)
    with pytest.raises(ConfigError):
        parse_config({"experiment": "canonical_identities"})


def test_hard_edge_run_writes_zero_csv(tmp_path):
    cfg = parse_config({
        "experiment": "hard_edge",
        "n_values": [60, 120],
        "tolerance": 0.02,
        "betas": [1.5],
        "output_dir": str(tmp_path / "he"),
    })
    lines, passed, data = run_experiment(cfg)
    assert passed
    zeros = (tmp_path / "he" / "zeros_beta_1.5.csv").read_text()
    assert zeros.startswith("n,k,zero,scaled_zero")
    assert "beta=1.5" in data


def test_hard_edge_betas_are_floats(tmp_path):
    # [2] wrote zeros_beta_2.csv and the report key beta=2, [2.0] zeros_beta_2.0.csv
    # and beta=2.0: the same exponent named its outputs two ways
    outputs = []
    for beta in (2, 2.0):
        out = tmp_path / repr(beta)
        raw = {"experiment": "hard_edge", "n_values": [40, 80], "betas": [beta],
               "output_dir": str(out)}
        assert parse_config(raw).settings["betas"] == (2.0,)
        assert main(["run", "--config", _write(tmp_path, raw)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert list(outputs[0]) == ["report.json", "zeros_beta_2.0.csv"]
    assert outputs[0] == outputs[1]


def test_sparse_run_reads_its_diagonal_once_per_level(tmp_path, monkeypatch):
    # K(t) and K(2t) of the ratio clause come from the diagnostics' one
    # recurrence at xi; the only kernel_diag calls left are the sampler's
    calls = []
    diag = cli.oprl.kernel_diag
    monkeypatch.setattr(cli.oprl, "kernel_diag",
                        lambda rec, n, xi: calls.append(n) or diag(rec, n, xi))
    run_experiment(parse_config({"experiment": "sparse", "n_values": [100, 1000],
                                 "output_dir": str(tmp_path / "sp")}))
    assert sorted(calls) == [100, 1000]


def test_opuc_bulk_fits_the_scale_once(tmp_path, monkeypatch):
    # the k111_sine identity K_{1,1,1}(pi z, pi w) = S(z, w) gives the printed
    # kernel's scale as pi times the sine-kernel fit's, so the run fits once
    fits = []
    fit = universality.fit_internal_scale
    monkeypatch.setattr(universality, "fit_internal_scale",
                        lambda samples, target: fits.append(samples) or fit(samples, target))
    _, passed, data = run_experiment(parse_config({"experiment": "opuc_bulk",
                                                   "output_dir": str(tmp_path / "ob")}))
    assert passed and len(fits) == 1
    assert not hasattr(cli, "fit_internal_scale")
    direct = fit(fits[0], build_limit_kernel(1.0, 1.0, 1.0)).c
    assert abs(data["fitted_c_vs_printed_kernel"] - direct) <= 1e-12 * direct


@pytest.mark.parametrize("ratio", [1.5, 2.5])
def test_sparse_run_with_a_fractional_ratio_reaches_a_verdict(tmp_path, ratio):
    # the rounded bump positions of these ratios do not keep N_{j+1}/N_j
    # monotone, and the run still reaches its three verdicts
    raw = {"experiment": "sparse", "n_values": [100, 1000], "ratio": ratio,
           "output_dir": str(tmp_path / "sp")}
    code = main(["run", "--config", _write(tmp_path, raw)])
    report = json.loads((tmp_path / "sp" / "report.json").read_text())
    assert code == (0 if report["passed"] else 1)
    assert [line[:6] in ("[PASS]", "[FAIL]") for line in report["lines"]] == [True] * 3


def test_sparse_bumps_that_do_not_strictly_increase_are_a_config_error(tmp_path, capsys):
    # round(1.1^j) gives the positions 1, 1: parse_config runs the run's bump
    # rule, so the config exits 2 with one line instead of a traceback at exit 1
    raw = {"experiment": "sparse", "first": 1, "ratio": 1.1, "n_values": [100],
           "output_dir": str(tmp_path / "sp")}
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.field == "ratio"
    assert main(["run", "--config", _write(tmp_path, raw)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'ratio'" in err[0] and "first = 1.0, ratio = 1.1" in err[0]
    assert not (tmp_path / "sp").exists()


@pytest.mark.parametrize("experiment", ["bulk", "jump", "opuc_bulk", "sparse", "hard_edge",
                                        "fisher_hartwig"])
def test_fractional_level_is_a_config_error(tmp_path, capsys, experiment):
    # [0.5] passed every check and ran level int(0.5) = 0: a ZeroDiagonalError
    # or "math domain error" traceback at exit 1
    raw = {"experiment": experiment, "n_values": [0.5], "output_dir": str(tmp_path / "out")}
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.field == "n_values"
    assert main(["run", "--config", _write(tmp_path, raw)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'n_values'" in err[0] and "0.5" in err[0]
    assert not (tmp_path / "out").exists()


def test_integral_float_level_is_that_integer(tmp_path):
    # [20, 40.7] ran level 40 silently; 40.0 is the level 40, and nothing else is
    csvs = []
    for out, n_values in (("int", [20, 40]), ("float", [20, 40.0])):
        raw = {"experiment": "bulk", "n_values": n_values, "tolerance": 0.2,
               "scaling": {"eta": 0.5}, "grid": {"half_width": 1.0, "points_per_axis": 4},
               "output_dir": str(tmp_path / out)}
        assert parse_config(raw).settings["n_values"] == (20, 40)
        assert main(["run", "--config", _write(tmp_path, raw)]) == 0
        csvs.append((tmp_path / out / "kernel_40.csv").read_bytes())
    assert csvs[0] == csvs[1]
    with pytest.raises(ConfigError) as exc:
        parse_config({"experiment": "bulk", "n_values": [20, 40.7]})
    assert exc.value.field == "n_values"


def test_schrodinger_lengths_are_real(tmp_path):
    cfg = parse_config({"experiment": "schrodinger", "n_values": [20.5], "output_dir":
                        str(tmp_path / "s"), "grid": {"half_width": 1.0, "points_per_axis": 3}})
    assert cfg.settings["n_values"] == (20.5,)
    lines, _, data = run_experiment(cfg)
    assert "at x = [20.5]" in lines[1] and len(data["sup_errors"]) == 1
    assert (tmp_path / "s" / "kernel_20_5.csv").exists()


def test_missing_config_file():
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2
