"""Config ingestion, presets, CSV emission and exit codes."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import swipt_mac as sm
import swipt_mac.cli as cli
from swipt_mac.cli import ConfigError, PRESETS, _parse_number, ingest_config, main
from swipt_mac.numerics import ScanConfig


def test_parse_number_db_suffixes():
    assert _parse_number("n", "-30dBW") == pytest.approx(1e-3)
    assert _parse_number("n", "-60dB") == pytest.approx(1e-6)
    assert _parse_number("n", "0dB") == pytest.approx(1.0)
    assert _parse_number("n", "3 db") == pytest.approx(10.0 ** 0.3)
    assert _parse_number("n", "-21dbw") == pytest.approx(10.0 ** -2.1)
    assert _parse_number("p1", "0.5") == 0.5
    with pytest.raises(ConfigError) as exc:
        _parse_number("p1", "half")
    assert exc.value.key == "p1"
    for raw in ("nan", "inf", "-inf", "nan dB", "inf dBW", "1e4dB"):
        with pytest.raises(ConfigError):
            _parse_number("p1", raw)


def test_all_presets_ingest():
    for name, kv in PRESETS.items():
        cfg = ingest_config(kv)
        assert cfg.scenario in ("classical-simul", "classical-sic", "coop")
        if cfg.scenario == "coop":
            assert cfg.coop is not None
        else:
            assert cfg.classical is not None


def test_channel_gains_derive_from_distances():
    cfg = ingest_config(PRESETS["fig3a"])
    # d=3, alpha=2: amplitude 3^-2, power gain 3^-4
    assert cfg.classical.h1_sq == pytest.approx(3.0 ** -4.0)
    assert cfg.classical.h2_sq == pytest.approx(3.0 ** -4.0)
    assert cfg.classical.n == pytest.approx(1e-6)
    assert cfg.classical.n_p == pytest.approx(1e-3)
    coop = ingest_config(PRESETS["fig5a"])
    assert coop.coop.h1 == pytest.approx(3.0 ** -2.0)
    assert coop.coop.b == pytest.approx(64.0)  # 0.008^2 / 1e-6
    # budgets default to the classical per-user powers
    assert coop.coop.p_u1_budget == 0.5 and coop.coop.p_u2_budget == 0.5
    assert coop.coop.cost_dest.beta == pytest.approx(1e-3)


def test_explicit_gains_override_distances():
    kv = dict(PRESETS["fig3a"], h1_sq="0.02", h2_sq="0.01")
    cfg = ingest_config(kv)
    assert cfg.classical.h1_sq == 0.02 and cfg.classical.h2_sq == 0.01


def test_ingest_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError) as exc:
        ingest_config(dict(PRESETS["fig3a"], banana="1"))
    assert exc.value.key == "banana"
    with pytest.raises(ConfigError) as exc:
        ingest_config({k: v for k, v in PRESETS["fig3a"].items() if k != "scenario"})
    assert exc.value.key == "scenario"
    with pytest.raises(ConfigError):
        ingest_config(dict(PRESETS["fig3a"], scenario="quantum"))
    with pytest.raises(ConfigError):
        ingest_config(dict(PRESETS["fig3a"], rho_max="1.5"))
    with pytest.raises(ConfigError):
        ingest_config(dict(PRESETS["fig3a"], rho_points="many"))


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "scenario = classical-simul\n"
        "eh_model = linear\n"
        "eh_eta = 0.6   # trailing comment\n"
        "cost_model = exp\n"
        "cost_beta = -30dBW\n"
        "h1_sq = 0.0123\n"
        "h2_sq = 0.0123\n"
        "p1 = 0.5\np2 = 0.5\nn = -60dB\nn_p = -30dB\n"
    )
    cfg = ingest_config(cli._read_config_file(str(path)))
    assert cfg.classical.eh.eta == 0.6
    assert cfg.classical.cost.beta == pytest.approx(1e-3)

    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario classical-simul\n")
    with pytest.raises(ConfigError):
        cli._read_config_file(str(bad))
    with pytest.raises(ConfigError):
        cli._read_config_file(str(tmp_path / "missing.cfg"))


def test_region_command_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["region", "--preset", "fig3c", "--out", str(out1)]) == 0
    assert main(["region", "--preset", "fig3c", "--out", str(out2)]) == 0
    text = out1.read_text()
    assert out2.read_text() == text
    lines = text.strip().splitlines()
    assert lines[0] == "r2_bits,r1_bits,rho,order_or_weights,hulled"
    assert len(lines) > 10
    prev_r2 = -1.0
    for line in lines[1:]:
        r2, r1, rho = (float(x) for x in line.split(",")[:3])
        assert r2 > prev_r2
        assert r1 >= 0.0 and 0.0 <= rho <= 1.0
        prev_r2 = r2


def test_region_command_emits_empty_marker(tmp_path):
    out = tmp_path / "empty.csv"
    kv = dict(PRESETS["fig3d"], cost_phi0="0.025")
    cfg_file = tmp_path / "empty.cfg"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    assert main(["region", "--config", str(cfg_file), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1].startswith("# empty:")


def _region_rows(kv, tmp_path):
    """The rows `region` prints for the config kv."""
    cfg_file = tmp_path / "region.cfg"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    out = tmp_path / "region.csv"
    assert main(["region", "--config", str(cfg_file), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r2_bits,r1_bits,rho,order_or_weights,hulled"
    return lines[1:]


def _curve_rows(curve, tag):
    fmt = cli._fmt
    return [
        f"{fmt(p.r2)},{fmt(p.r1)},{fmt(p.rho)},{tag(m)},{int(curve.hulled)}"
        for p, m in zip(curve.points, curve.metadata)
    ]


def test_region_command_tags_sic_rows_by_decoding_order(tmp_path):
    kv = dict(PRESETS["fig3a"], scenario="classical-sic", region_points="64")
    rows = _region_rows(kv, tmp_path)
    curve = sm.mdrb_sic(ingest_config(kv).classical, n_points=64)
    assert rows == _curve_rows(curve, lambda m: m["order"])
    assert {row.split(",")[3] for row in rows} == {"user1_first", "user2_first"}


def test_region_command_tags_coop_rows_by_weights(tmp_path):
    kv = dict(PRESETS["fig5a"], weight_count="3", scan_points="21", scan_refine="8")
    rows = _region_rows(kv, tmp_path)
    cfg = ingest_config(kv)
    weights = [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    curve = sm.coop_mdrb(cfg.coop, weights=weights, scan=ScanConfig(21, 8))
    assert cfg.scan == ScanConfig(21, 8)
    tag = lambda m: f"mu1={cli._fmt(m['mu1'])};mu2={cli._fmt(m['mu2'])}"
    assert rows == _curve_rows(curve, tag)
    assert rows and all(row.split(",")[3].startswith("mu1=") for row in rows)


def test_sumrate_command_sweep_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sumrate", "--preset", "fig4a", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "rho,sum_rate_bits,binding_constraint"
    assert len(lines) == 1 + 1001 + 1  # header + sweep + optimum row
    assert lines[-1].endswith(",opt")
    rows = [line.split(",") for line in lines[1:-1]]
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(0.95)
    assert {r[2] for r in rows} <= {"cost", "rate"}
    # at this fee slope the harvest cap binds across the whole sweep and the
    # values plateau under the saturation ceiling
    assert all(r[2] == "cost" for r in rows[-100:])
    cap = 0.5 * math.log2(0.024 / 0.1 + 1.0)
    assert max(float(r[1]) for r in rows) <= cap + 1e-9


def test_sumrate_rejects_coop_scenario():
    assert main(["sumrate", "--preset", "fig5a"]) == 2


def test_coop_command_tabulates_solutions(tmp_path):
    cfg_file = tmp_path / "coop.cfg"
    kv = dict(
        PRESETS["fig5a"], weight_count="3", scan_points="21", scan_refine="8"
    )
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    out = tmp_path / "coop.csv"
    assert main(["coop", "--config", str(cfg_file), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == (
        "mu1,mu2,r1_bits,r2_bits,rho,p12,p21,pu1,pu2,weighted_rate,source,valid"
    )
    assert len(lines) == 1 + 3
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 12
        assert parts[11] in ("0", "1")
        mu1, mu2 = float(parts[0]), float(parts[1])
        wr = float(parts[9])
        assert wr == pytest.approx(
            mu1 * float(parts[2]) + mu2 * float(parts[3]), abs=1e-9
        )


@pytest.mark.parametrize("preset", ["fig5a", "fig5d"])
def test_coop_command_matches_per_weight_solves(preset, tmp_path):
    # the command solves all weights from one trace; each row must be what
    # a solve at that weight alone prints
    out = tmp_path / "coop.csv"
    assert main(["coop", "--preset", preset, "--out", str(out)]) == 0
    cfg = ingest_config(PRESETS[preset])
    lines = ["mu1,mu2,r1_bits,r2_bits,rho,p12,p21,pu1,pu2,weighted_rate,source,valid"]
    for t in np.linspace(0.0, 1.0, cfg.weight_count):
        sol = cli.coop_solve_general(cfg.coop, float(t), float(1.0 - t), cfg.scan)
        a = sol.alloc
        nums = (sol.mu1, sol.mu2, sol.r1, sol.r2, sol.rho, a.p12, a.p21, a.pu1, a.pu2,
                sol.weighted_rate)
        lines.append(",".join([*map(cli._fmt, nums), sol.source,
                               "1" if sol.cooperation_valid else "0"]))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_coop_command_rejects_classical_scenario():
    assert main(["coop", "--preset", "fig3a"]) == 2


_PINNED_CSVS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "cli_hashes.json"
)


def test_pinned_classical_csvs_are_byte_identical(capsys):
    # the benchmark's recorded SHA-256 of each pinned command's stdout
    with open(_PINNED_CSVS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert len(pinned) == 6
    for command, want in sorted(pinned.items()):
        name, preset = command.split()
        assert main([name, "--preset", preset]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == want, command


# SHA-256 of the stdout of `verify --preset P`; the printed analytic optimum
# moves with any change to the classical solvers' results
_PINNED_VERIFY = {
    "fig3a": "85044f4d83e433706ae00fa050912da1095e14e5e5d44ffb329cbe1354799e9b",
    "fig4b": "607c046181e2814f1aa6a702c04852727555bcf2df081b56e9c8a52a704c4da9",
}


@pytest.mark.parametrize("preset", sorted(_PINNED_VERIFY))
def test_pinned_classical_verify_output_is_byte_identical(preset, capsys):
    assert main(["verify", "--preset", preset]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == _PINNED_VERIFY[preset]


def test_verify_classical_passes(tmp_path, capsys):
    assert main(["verify", "--preset", "fig3a"]) == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    assert "sum_rate_gap_bits" in text


def test_verify_coop_passes(tmp_path):
    cfg_file = tmp_path / "v.cfg"
    kv = dict(
        PRESETS["fig5a"],
        oracle_grid="61",
        scan_points="21",
        scan_refine="8",
        mu1="0.5",
        mu2="0.5",
    )
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    out = tmp_path / "v.txt"
    assert main(["verify", "--config", str(cfg_file), "--out", str(out)]) == 0
    text = out.read_text()
    assert "overall: PASS" in text
    assert "budget1_residual_w" in text


def test_verify_fails_a_solver_short_of_its_oracle(tmp_path, monkeypatch, capsys):
    cfg_file = tmp_path / "v.cfg"
    cfg_file.write_text("oracle_grid = 21\nscan_points = 21\nscan_refine = 8\n")
    real = cli.oracle_coop_weighted

    def above(*args):  # an oracle 1.38 bits above whatever the grid finds
        orc = real(*args)
        return dataclasses.replace(orc, weighted_rate=orc.weighted_rate + 1.38)

    monkeypatch.setattr(cli, "oracle_coop_weighted", above)
    assert main(["verify", "--preset", "fig5a", "--config", str(cfg_file)]) == 1
    lines = capsys.readouterr().out.splitlines()
    gap = next(line for line in lines if line.startswith("weighted_rate_gap_bits"))
    assert gap.endswith("-> FAIL")
    assert float(gap.split()[1]) > 1.3
    assert lines[-1] == "overall: FAIL (1)"


@pytest.mark.parametrize(
    "key, bad, edge",
    [
        ("region_points", "-3", "2"),
        ("region_points", "0", "2"),
        ("region_points", "1", "2"),
        ("rho_points", "0", "1"),
        ("weight_count", "0", "1"),
        ("weight_count", "-1", "1"),
        ("oracle_grid", "1", "2"),
        ("scan_points", "2", "3"),
        ("oracle_rho_step", "0", "1"),
        ("oracle_rho_step", "-0.01", "1e-5"),
        ("oracle_rho_step", "1.5", "1"),
        # the oracle's memory ceiling; its edge is not allocated here
        ("oracle_rho_step", "1e-9", "1e-7"),
        ("oracle_grid", "4097", "4096"),
    ],
)
def test_out_of_range_knobs_fail_at_config_time(key, bad, edge, tmp_path, capsys):
    cfg_file = tmp_path / "knob.cfg"
    cfg_file.write_text(f"{key} = {bad}\n")
    assert main(["region", "--preset", "fig3c", "--config", str(cfg_file)]) == 2
    assert f"config key '{key}'" in capsys.readouterr().err
    # the smallest (or largest) value in range is accepted
    for preset in ("fig3c", "fig5a"):
        ingest_config(dict(PRESETS[preset], **{key: edge}))


def test_exit_codes_for_config_errors():
    assert main(["region", "--preset", "nope"]) == 2
    assert main(["region"]) == 2  # neither preset nor config


def test_exit_code_for_numbers_outside_the_model_domain(tmp_path):
    # rejected while the config is built, before any solver runs
    cfg_file = tmp_path / "bad.cfg"
    for value in ("nan", "inf", "-1"):
        cfg_file.write_text(f"p_u1_budget = {value}\n")
        assert main(["verify", "--preset", "fig5a", "--config", str(cfg_file)]) == 2


def test_exit_code_for_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("scenario = classical-simul\nwavelength = 3\n")
    assert main(["region", "--config", str(cfg_file)]) == 2


@pytest.mark.parametrize("over, key", [
    ({"eh_q1": None}, "eh_q1"),
    ({"eh_model": "linear"}, "eh_eta"),
    ({"cost_beta": None}, "cost_beta"),
    ({"cost_model": "const"}, "cost_phi0"),
    ({"eh_model": "diode"}, "eh_model"),
    ({"cost_model": "cubic"}, "cost_model"),
])
def test_model_key_errors_exit_2_and_name_the_key(over, key, tmp_path, capsys):
    kv = {k: v for k, v in {**PRESETS["fig3a"], **over}.items() if v is not None}
    cfg_file = tmp_path / "model.cfg"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    assert main(["region", "--config", str(cfg_file)]) == 2
    assert f"config key '{key}'" in capsys.readouterr().err


def test_exit_code_for_infeasible_sumrate(tmp_path):
    cfg_file = tmp_path / "inf.cfg"
    kv = dict(PRESETS["fig3d"], cost_phi0="0.025")
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    assert main(["sumrate", "--config", str(cfg_file)]) == 3


def test_config_file_overrides_preset(tmp_path):
    cfg_file = tmp_path / "o.cfg"
    cfg_file.write_text("cost_beta = 0.002\n")
    # file entries win over preset entries
    kv = {}
    kv.update(PRESETS["fig3a"])
    kv.update(cli._read_config_file(str(cfg_file)))
    assert ingest_config(kv).classical.cost.beta == pytest.approx(0.002)


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, swipt_mac.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
