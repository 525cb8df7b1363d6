"""Command-line interface, exercised in process through cli.main."""
from __future__ import annotations

import _pyio
import builtins
import json
import os

import numpy as np
import pytest

from convprune import (
    ConvLayer,
    SingularGramError,
    cli,
    oracles,
    read_model,
    read_report,
    read_tensor,
    write_model,
    write_tensor,
)
from convprune.oracles import SuiteResult


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def workspace(tmp_path):
    model = tmp_path / "model.json"
    data = tmp_path / "data.bin"
    code = run(
        "gen",
        "--layers", "3",
        "--channels", "8",
        "--kernel", "3",
        "--redundancy", "0.5",
        "--examples", "4",
        "--seed", "1",
        "--out-model", str(model),
        "--out-data", str(data),
    )
    assert code == 0
    return tmp_path, model, data


def test_gen_writes_model_data_and_manifest(workspace, capsys):
    tmp_path, model, data = workspace
    net, shape = read_model(model)
    assert len(net) == 3
    assert shape == (8, 8, 8)
    tensor = read_tensor(data)
    assert tensor.shape == (4, 8, 8, 8)
    manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
    assert manifest["seed"] == 1
    assert len(manifest["layers"]) == 3
    assert all(len(e["planted"]) == 4 for e in manifest["layers"])


def test_gen_is_deterministic(tmp_path):
    args = lambda tag: [
        "gen", "--layers", "2", "--channels", "6", "--seed", "3",
        "--out-model", str(tmp_path / f"m{tag}.json"),
        "--out-data", str(tmp_path / f"d{tag}.bin"),
    ]
    assert run(*args("a")) == 0
    assert run(*args("b")) == 0
    assert (tmp_path / "ma.json").read_bytes() == (tmp_path / "mb.json").read_bytes()
    assert (tmp_path / "da.bin").read_bytes() == (tmp_path / "db.bin").read_bytes()


def test_gen_per_layer_redundancy(tmp_path):
    model = tmp_path / "m.json"
    code = run(
        "gen", "--layers", "3", "--channels", "10", "--redundancy", "0.1,0.5,0.8",
        "--out-model", str(model), "--out-data", str(tmp_path / "d.bin"),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert [len(e["planted"]) for e in manifest["layers"]] == [1, 5, 8]


def test_prune_eval_round_trip(workspace, capsys):
    tmp_path, model, data = workspace
    out = tmp_path / "pruned.json"
    report_path = tmp_path / "report.json"
    code = run(
        "prune",
        "--model", str(model),
        "--data", str(data),
        "--selector", "hbgts",
        "--method", "fp-backward",
        "--alpha", "2",
        "--beta", "0.3",
        "--out", str(out),
        "--report", str(report_path),
    )
    assert code == 0
    report = read_report(report_path)
    assert report.status == "reached"
    assert report.param_drop_pct >= 30.0
    pruned, shape = read_model(out)
    stats_line = capsys.readouterr().out
    assert "status=reached" in stats_line

    code = run("eval", "--model", str(out), "--data", str(data),
               "--reference-model", str(model))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["examples"] == 4
    assert payload["param_drop_pct"] == report.param_drop_pct
    assert payload["flops_drop_pct"] == report.flops_drop_pct
    # half of every layer is exactly redundant, so a 30% cut is near-free
    assert payload["relative_error"] < 1e-6
    assert payload["params"] < payload["reference_params"]


def test_eval_self_is_zero(workspace, capsys):
    _, model, data = workspace
    assert run("eval", "--model", str(model), "--data", str(data)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["relative_error"] == 0.0
    assert payload["param_drop_pct"] == 0.0


def test_prune_reports_are_byte_identical(workspace):
    tmp_path, model, data = workspace
    argv = lambda tag: [
        "prune", "--model", str(model), "--data", str(data),
        "--beta", "0.3", "--alpha", "2",
        "--out", str(tmp_path / f"out{tag}.json"),
        "--report", str(tmp_path / f"rep{tag}.json"),
    ]
    assert run(*argv("a")) == 0
    assert run(*argv("b")) == 0
    assert (tmp_path / "outa.json").read_bytes() == (tmp_path / "outb.json").read_bytes()
    assert (tmp_path / "repa.json").read_bytes() == (tmp_path / "repb.json").read_bytes()


def test_files_have_the_same_bytes_on_any_platform(workspace, monkeypatch):
    """gen and prune write "\n" line ends whatever os.linesep is, where a
    file opened in text mode writes os.linesep ("\r\n" on Windows) for each
    "\n".  The pure-Python io, which reads os.linesep when it opens a text
    file, stands in for a Windows build."""
    tmp_path, model, data = workspace
    argv = lambda tag: [
        "prune", "--model", str(tmp_path / f"model{tag}.json"), "--data", str(data),
        "--beta", "0.3", "--alpha", "2",
        "--out", str(tmp_path / f"out{tag}.json"),
        "--report", str(tmp_path / f"rep{tag}.json"),
    ]
    assert run(*argv("")) == 0
    monkeypatch.setattr(os, "linesep", "\r\n")
    monkeypatch.setattr(builtins, "open", _pyio.open)
    code = run(
        "gen", "--layers", "3", "--channels", "8", "--kernel", "3",
        "--redundancy", "0.5", "--examples", "4", "--seed", "1",
        "--out-model", str(tmp_path / "model_crlf.json"),
        "--out-data", str(tmp_path / "data_crlf.bin"),
    )
    assert code == 0
    assert run(*argv("_crlf")) == 0
    monkeypatch.undo()
    for name in ("model{}.json", "model{}.json.manifest.json", "out{}.json", "rep{}.json"):
        written = (tmp_path / name.format("_crlf")).read_bytes()
        assert written == (tmp_path / name.format("")).read_bytes(), name


def test_partial_run_exits_3(workspace, capsys):
    tmp_path, model, data = workspace
    out = tmp_path / "pruned.json"
    report_path = tmp_path / "report.json"
    # uniform commits its one round, but the floor still blocks its target
    for selector in ("hbgts", "uniform"):
        code = run(
            "prune", "--model", str(model), "--data", str(data),
            "--selector", selector, "--beta", "0.95", "--floor", "4",
            "--out", str(out), "--report", str(report_path),
        )
        assert code == 3
        # the partial result is still written in full
        report = read_report(report_path)
        assert report.status == "partial"
        pruned, _ = read_model(out)
        assert all(layer.out_channels == 4 for layer in pruned.layers)


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run() == 1
    assert run("frobnicate") == 1
    assert run("gen", "--wat") == 1
    assert run("prune", "--model", "m", "--data", "d", "--out", "o") == 1  # no --beta
    assert run("verify", "--suite", "nonsense") == 1
    assert run("prune", "--model", "m", "--data", "d", "--out", "o",
               "--beta", "0.3", "--selector", "greedy") == 1
    # a run that checks nothing is not a pass
    for trials in ("0", "-3"):
        assert run("verify", "--suite", "omp-oracle", "--trials", trials) == 1
        assert "--trials: must be >= 1" in capsys.readouterr().err
    # every --seed rejects a negative value by name, before any file is read
    for argv in (
        ("gen", "--out-model", "m", "--out-data", "d"),
        ("prune", "--model", "m", "--data", "d", "--out", "o", "--beta", "0.3",
         "--selector", "random"),
        ("verify", "--suite", "omp-oracle"),
    ):
        assert run(*argv, "--seed", "-1") == 1
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err
    assert run("verify", "--trials", "x") == 1
    assert "--trials: invalid int value: 'x'" in capsys.readouterr().err


def test_bad_values_exit_1(workspace, capsys):
    tmp_path, model, data = workspace
    out = str(tmp_path / "o.json")
    assert run("prune", "--model", str(model), "--data", str(data),
               "--beta", "1.5", "--out", out) == 1
    assert run("prune", "--model", str(model), "--data", str(data),
               "--beta", "0.3", "--alpha", "0", "--out", out) == 1
    assert run("gen", "--redundancy", ",", "--out-model", out,
               "--out-data", str(tmp_path / "d.bin")) == 1
    assert run("gen", "--redundancy", "0.2,0.4", "--layers", "3",
               "--out-model", out, "--out-data", str(tmp_path / "d.bin")) == 1
    capsys.readouterr()


def test_file_errors_exit_2(workspace, capsys):
    tmp_path, model, data = workspace
    out = str(tmp_path / "o.json")
    assert run("prune", "--model", str(tmp_path / "nope.json"),
               "--data", str(data), "--beta", "0.3", "--out", out) == 2
    assert run("prune", "--model", str(model), "--data", str(model),
               "--beta", "0.3", "--out", out) == 2  # JSON where a tensor belongs
    broken = tmp_path / "broken.json"
    broken.write_text("{ definitely not json")
    assert run("eval", "--model", str(broken), "--data", str(data)) == 2
    doc = json.loads(model.read_text())
    doc["layers"][0]["weights"] = 5
    broken.write_text(json.dumps(doc))
    assert run("eval", "--model", str(broken), "--data", str(data)) == 2
    # shape fields must be JSON integers, not values int() would coerce
    for edit in [
        lambda d: d["layers"][0].update(out_channels=8.9),
        lambda d: d["layers"][0].update(kernel_size="3"),
        lambda d: d.update(input_shape=[8.7, "8", 8]),
    ]:
        doc = json.loads(model.read_text())
        edit(doc)
        broken.write_text(json.dumps(doc))
        assert run("eval", "--model", str(broken), "--data", str(data)) == 2
    # a zero input extent is rejected when the model is read, before any
    # selection runs or any output is written
    doc = json.loads(model.read_text())
    doc["input_shape"][1] = 0
    broken.write_text(json.dumps(doc))
    report = tmp_path / "o.report.json"
    assert not (tmp_path / "o.json").exists() and not report.exists()
    assert run("prune", "--model", str(broken), "--data", str(data),
               "--beta", "0.3", "--out", out, "--report", str(report)) == 2
    assert not (tmp_path / "o.json").exists() and not report.exists()
    assert run("eval", "--model", str(model), "--data", str(data),
               "--reference-model", str(tmp_path / "ghost.json")) == 2
    # text the JSON parser cannot read, and a layers field that is no list
    doc = json.loads(model.read_text())
    for blob in [
        b"\xff\xfe{}",  # not UTF-8
        b"[" * 200_000,  # deeper than the parser recurses
        json.dumps(dict(doc, layers=5)).encode(),
        json.dumps(dict(doc, layers=float("nan"))).encode(),
    ]:
        broken.write_bytes(blob)
        assert run("eval", "--model", str(broken), "--data", str(data)) == 2
    # a float among the int64 bit patterns, as adding to a weight through a
    # JSON tool writes it
    doc["layers"][0]["weights"][0] += 1e-3
    broken.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    assert run("eval", "--model", str(broken), "--data", str(data)) == 2
    assert "not an int64 bit pattern" in capsys.readouterr().err
    # calibration data must be finite, as model weights must
    for bad in [np.nan, np.inf]:
        tensor = read_tensor(data)
        tensor[0, 0, 0, 0] = bad
        nonfinite = tmp_path / "nonfinite.bin"
        write_tensor(tensor, nonfinite)
        assert run("prune", "--model", str(model), "--data", str(nonfinite),
                   "--beta", "0.3", "--out", out) == 2
        assert run("eval", "--model", str(model), "--data", str(nonfinite)) == 2
    err = capsys.readouterr().err
    assert "convprune" in err


def test_prune_prints_signed_change(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the printed line names --out as given

    def gen(tag, *argv):
        model, data = tmp_path / f"{tag}.json", tmp_path / f"{tag}.bin"
        assert run("gen", *argv, "--out-model", str(model), "--out-data", str(data)) == 0
        return ["--model", str(model), "--data", str(data)]

    def prune(inputs, *argv):
        code = run("prune", *inputs, *argv, "--out", "o.json")
        line = capsys.readouterr().out.strip()
        return code, line.split(" status=")[1]

    std = gen("std", "--layers", "4", "--channels", "24", "--redundancy", "0.3",
              "--examples", "6", "--seed", "5")
    # a reduction prints as it always has
    assert prune(std, "--selector", "hbgts", "--beta", "0.4", "--alpha", "3") == (
        0, "reached rounds=15 params -41.0% flops -41.0% -> o.json")
    # no round committed: no change, and no sign
    assert prune(std, "--selector", "hbgts", "--beta", "0.4", "--floor", "30") == (
        3, "partial rounds=0 params 0.0% flops 0.0% -> o.json")
    # the floor keeps every layer above its target: uniform commits its one
    # round and is partial too
    assert prune(std, "--selector", "uniform", "--beta", "0.3", "--floor", "100") == (
        3, "partial rounds=1 params 0.0% flops 0.0% -> o.json")
    # 1x1 layers 40 -> 40 gain a 38x40 map: the counts grow
    wide = gen("wide", "--layers", "2", "--channels", "40", "--kernel", "1",
               "--redundancy", "0", "--examples", "2", "--seed", "1")
    assert prune(wide, "--selector", "uniform", "--beta", "0.05") == (
        0, "reached rounds=1 params +90.0% flops +90.0% -> o.json")


@pytest.mark.parametrize("selector", ["hbgts", "uniform"])
def test_zero_filter_model_exits_2(workspace, capsys, selector):
    tmp_path, model, data = workspace
    net, shape = read_model(model)
    layer = net.layers[1]
    weights = layer.weights.copy()
    weights[0] = 0.0
    net = net.with_layer(1, ConvLayer(weights, layer.comp, layer.activation))
    dead = tmp_path / "dead.json"
    write_model(net, shape, dead)
    assert run("prune", "--model", str(dead), "--data", str(data),
               "--selector", selector, "--beta", "0.3",
               "--out", str(tmp_path / "o.json")) == 2
    assert "layer 1: filter column 0 has zero norm" in capsys.readouterr().err


def test_data_model_mismatch_exits_2(workspace, tmp_path, capsys):
    _, model, _ = workspace
    bad = tmp_path / "bad.bin"
    write_tensor(np.zeros((2, 3, 8, 8)), bad)  # 3 channels, model wants 8
    assert run("prune", "--model", str(model), "--data", str(bad),
               "--beta", "0.3", "--out", str(tmp_path / "o.json")) == 2
    capsys.readouterr()


@pytest.mark.parametrize("width", [1, 2])
def test_eval_against_another_final_width_exits_2(workspace, capsys, width):
    tmp_path, model, data = workspace
    ref_net, input_shape = read_model(model)
    last = ref_net.layers[-1]
    rng = np.random.default_rng(width)
    narrow = ConvLayer(rng.standard_normal((width, last.in_channels, 3, 3)))
    other = tmp_path / "other.json"
    write_model(ref_net.with_layer(len(ref_net) - 1, narrow), input_shape, other)
    assert run("eval", "--model", str(other), "--data", str(data),
               "--reference-model", str(model)) == 2
    assert f"final width {width}, reference has 8" in capsys.readouterr().err


def test_numerical_failure_exits_5(workspace, monkeypatch, capsys):
    tmp_path, model, data = workspace

    def singular(*args, **kwargs):
        raise SingularGramError("Gram matrix singular")

    monkeypatch.setattr(cli, "run_selector", singular)
    assert run("prune", "--model", str(model), "--data", str(data),
               "--beta", "0.3", "--out", str(tmp_path / "o.json")) == 5
    assert "singular" in capsys.readouterr().err


def test_verify_single_suite(capsys):
    assert run("verify", "--suite", "deletion-oracle", "--trials", "5") == 0
    out = capsys.readouterr().out
    assert out.startswith("deletion-oracle:")
    assert "ok" in out


def test_verify_failure_exits_4(monkeypatch, capsys):
    def failing(seed=0, trials=1):
        result = SuiteResult(name="deletion-oracle", trials=trials, tolerance=1e-8)
        result.record(seed, deviation=1.0)
        return result

    monkeypatch.setitem(oracles.SUITES, "deletion-oracle", failing)
    assert run("verify", "--suite", "deletion-oracle") == 4
    assert "FAIL" in capsys.readouterr().out


def test_verify_all_runs_every_suite(monkeypatch, capsys):
    ran = []

    def fake(name):
        def suite(seed=0, trials=1):
            ran.append(name)
            return SuiteResult(name=name, trials=trials, tolerance=1.0)

        return suite

    for name in list(oracles.SUITES):
        monkeypatch.setitem(oracles.SUITES, name, fake(name))
    assert run("verify", "--suite", "all", "--trials", "1") == 0
    assert ran == sorted(oracles.SUITES)
    assert len(capsys.readouterr().out.splitlines()) == len(ran)
