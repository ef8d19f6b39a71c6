import json
import pathlib

import pytest

from cdlab.cli import EXPERIMENTS, ConfigError, load_config, main, parse_config, run_experiment

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _write(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(EXPERIMENTS)
    for line, (name, spec) in zip(lines, EXPERIMENTS.items()):
        assert line.split()[0] == name
        assert line.endswith(spec.help)


def test_packaged_configs_load():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert paths
    for path in paths:
        assert load_config(path).experiment in EXPERIMENTS


def test_unknown_identity_module_is_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError) as exc:
        parse_config({"experiment": "identities", "module_filter": "nonexistent"})
    assert exc.value.field == "module_filter"
    path = _write(tmp_path, {"experiment": "identities", "module_filter": "nonexistent",
                             "output_dir": str(tmp_path / "id")})
    assert main(["run", "--config", path]) == 2
    with pytest.raises(SystemExit) as stop:
        main(["identities", "--filter", "nonexistent"])
    assert stop.value.code == 2
    assert "--filter" in capsys.readouterr().err


def test_identities_subcommand_filtered(capsys):
    assert main(["identities", "--filter", "special_fn"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "canonical" not in out


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
    assert cfg.measure["name"] == "legendre"
    assert cfg.n_values == [50, 100, 200]
    assert cfg.tolerance == 0.05


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


def test_identities_experiment_exit_status(tmp_path):
    cfg = parse_config({
        "experiment": "identities",
        "module_filter": "measures",
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
        "params": {"betas": [1.5]},
        "output_dir": str(tmp_path / "he"),
    })
    lines, passed, data = run_experiment(cfg)
    assert passed
    zeros = (tmp_path / "he" / "zeros_beta_1.5.csv").read_text()
    assert zeros.startswith("n,k,zero,scaled_zero")
    assert "beta=1.5" in data


def test_missing_config_file():
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2
