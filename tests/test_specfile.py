import json

import pytest

from cantelli import (
    IndependentModel,
    LatentUniformModel,
    MarkovModel,
    SpecError,
    build_model,
    load_spec,
)
from cantelli.specfile import parse_spec
from cantelli.windows import first_occurrence

from conftest import SPECS, reference_window_prob


def test_all_shipped_specs_load_and_build():
    expected = {
        "coin-half": IndependentModel,
        "powerlaw-2": IndependentModel,
        "harmonic": IndependentModel,
        "nested": LatentUniformModel,
        "interleaved-nested": LatentUniformModel,
        "markov-3state": MarkovModel,
        "flipflop": MarkovModel,
        "partial-maxima": IndependentModel,
    }
    found = {}
    for path in sorted(SPECS.glob("*.json")):
        spec = load_spec(path)
        model = build_model(spec)
        found[spec.name] = type(model)
    assert found == expected


def test_each_spec_builds_its_model_once(monkeypatch):
    built = []
    for cls in (IndependentModel, LatentUniformModel, MarkovModel):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    paths = sorted(SPECS.glob("*.json"))
    assert paths
    for path in paths:
        built.clear()
        spec = load_spec(path)
        assert build_model(spec) is build_model(spec)
        assert built == [type(build_model(spec))], path.name


def test_spec_name_defaults_to_stem(tmp_path):
    p = tmp_path / "mymodel.json"
    p.write_text(json.dumps({"model": {"family": "independent",
                                       "marginal": {"family": "constant", "value": 0.5}}}))
    assert load_spec(p).name == "mymodel"


def test_unknown_top_level_field_rejected():
    with pytest.raises(SpecError, match=r"spec\.extra"):
        parse_spec({"model": {"family": "independent",
                              "marginal": {"family": "constant", "value": 0.5}},
                    "extra": 1})


def test_unknown_family_field_rejected():
    with pytest.raises(SpecError, match=r"marginal\.scale"):
        parse_spec({"model": {"family": "independent",
                              "marginal": {"family": "constant", "value": 0.5, "scale": 2}}})


def test_bad_row_sum_names_the_row():
    with pytest.raises(SpecError, match=r"transition\[1\].*sums"):
        parse_spec({
            "model": {
                "family": "markov",
                "transition": [[0.5, 0.5], [0.6, 0.5]],
                "initial": [1.0, 0.0],
                "events": {"mode": "constant", "members": [0]},
            }
        })


def test_bad_initial_sum_named():
    with pytest.raises(SpecError, match=r"model\.initial"):
        parse_spec({
            "model": {
                "family": "markov",
                "transition": [[0.5, 0.5], [0.5, 0.5]],
                "initial": [0.9, 0.0],
                "events": {"mode": "constant", "members": [0]},
            }
        })


def test_bad_event_member_named():
    with pytest.raises(SpecError, match="events"):
        parse_spec({
            "model": {
                "family": "markov",
                "transition": [[0.5, 0.5], [0.5, 0.5]],
                "initial": [1.0, 0.0],
                "events": {"mode": "constant", "members": [2]},
            }
        })


def test_unknown_model_family():
    with pytest.raises(SpecError, match="family"):
        parse_spec({"model": {"family": "quantum"}})


@pytest.mark.parametrize("family", [[], {}, 3, None])
def test_non_string_model_family_is_named(family):
    with pytest.raises(SpecError) as exc:
        parse_spec({"model": {"family": family}})
    assert exc.value.field == "spec.model.family"


def test_threshold_offset_only_for_latents():
    with pytest.raises(SpecError, match="offset"):
        parse_spec({"model": {"family": "independent",
                              "marginal": {"family": "powerlaw", "scale": 1.0,
                                           "exponent": 1.0, "offset": -1}}})


def test_logpower_family_parses():
    spec = parse_spec({
        "model": {"family": "independent",
                  "marginal": {"family": "logpower", "scale": 1.0, "exponent": 2.0}}
    })
    model = build_model(spec)
    import math

    marginal = reference_window_prob(model, first_occurrence(10, 0))
    assert marginal == pytest.approx(1.0 / math.log(11.0) ** 2)


def test_explicit_list_without_tail_surfaces_as_spec_error(tmp_path):
    # a model that runs off its explicit list mid-analysis exits with code 2
    from cantelli.cli import EXIT_SPEC, main

    p = tmp_path / "short.json"
    p.write_text(json.dumps({
        "model": {"family": "independent",
                  "marginal": {"family": "explicit", "values": [0.5, 0.5]}}
    }))
    assert main(["analyze", str(p), "--terms", "500"]) == EXIT_SPEC


def test_latent_spec_roundtrip():
    spec = parse_spec({
        "model": {
            "family": "latent-uniform",
            "num_latents": 2,
            "coloring": [0, 1],
            "thresholds": [
                {"family": "powerlaw", "scale": 1.0, "exponent": 1.0, "offset": -1},
                {"family": "powerlaw", "scale": 1.0, "exponent": 1.0},
            ],
        }
    })
    model = build_model(spec)
    assert isinstance(model, LatentUniformModel)
    assert model.threshold(4) == pytest.approx(0.5)


def test_defaults_validation():
    with pytest.raises(SpecError, match=r"defaults\.schedule"):
        parse_spec({
            "model": {"family": "independent",
                      "marginal": {"family": "constant", "value": 0.5}},
            "defaults": {"schedule": [8, 8]},
        })
    with pytest.raises(SpecError, match=r"defaults\.bogus"):
        parse_spec({
            "model": {"family": "independent",
                      "marginal": {"family": "constant", "value": 0.5}},
            "defaults": {"bogus": 1},
        })


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(SpecError, match="not found"):
        load_spec(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError, match="invalid JSON"):
        load_spec(bad)


def test_echo_preserves_content():
    spec = load_spec(SPECS / "coin-half.json")
    echo = spec.echo()
    assert echo["name"] == "coin-half"
    assert echo["model"]["marginal"]["value"] == 0.5
    assert echo["defaults"]["schedule"] == [8, 16, 32]


def _markov(**changes):
    model = {
        "family": "markov",
        "transition": [[0.5, 0.5], [0.5, 0.5]],
        "initial": [1.0, 0.0],
        "events": {"mode": "constant", "members": [0]},
    }
    model.update(changes)
    return model


def _latent(**changes):
    model = {
        "family": "latent-uniform",
        "num_latents": 2,
        "coloring": [0, 1],
        "thresholds": {"family": "powerlaw", "scale": 1.0, "exponent": 1.0},
    }
    model.update(changes)
    return model


def _independent(**marginal):
    return {"family": "independent", "marginal": marginal}


_HALF = {"family": "constant", "value": 0.5}


@pytest.mark.parametrize(
    "model, field",
    [
        (_markov(transition=[[0.5, 0.5], [0.6, 0.5]]), "spec.model.transition[1]"),
        (_markov(transition=[[1.0], [0.5, 0.5]]), "spec.model.transition[0]"),
        (_markov(transition=[[1.5, -0.5], [0.5, 0.5]]), "spec.model.transition[0]"),
        (_markov(transition=[]), "spec.model.transition"),
        (_markov(initial=[0.9, 0.0]), "spec.model.initial"),
        (_markov(initial=[1.0]), "spec.model.initial"),
        (_markov(events={"mode": "constant", "members": [0, 2]}),
         "spec.model.events.members[1]"),
        (_markov(events={"mode": "periodic", "cycle": [[0], [1, 5]]}),
         "spec.model.events.cycle[1][1]"),
        (_markov(events={"mode": "periodic", "cycle": []}), "spec.model.events.cycle"),
        (_markov(events={"mode": "explicit", "sets": [[0], [3]], "tail": [1]}),
         "spec.model.events.sets[1][0]"),
        (_markov(events={"mode": "explicit", "sets": [[0]], "tail": [0, 7]}),
         "spec.model.events.tail[1]"),
        (_latent(num_latents=0), "spec.model.num_latents"),
        (_latent(coloring=[0, 2]), "spec.model.coloring[1]"),
        (_latent(coloring=[]), "spec.model.coloring"),
        (_latent(coloring=[0, 0], thresholds=[_HALF, _HALF]), "spec.model.coloring"),
        (_latent(thresholds=[_HALF]), "spec.model.thresholds"),
        (_latent(thresholds=[_HALF, {"family": "constant", "value": 1.5}]),
         "spec.model.thresholds[1].value"),
        (_latent(thresholds={"family": "powerlaw", "scale": -1.0, "exponent": 1.0}),
         "spec.model.thresholds.scale"),
        (_independent(family="constant", value=1.5), "spec.model.marginal.value"),
        (_independent(family="powerlaw", scale=-1.0, exponent=2.0),
         "spec.model.marginal.scale"),
        (_independent(family="logpower", scale=-0.5, exponent=1.0),
         "spec.model.marginal.scale"),
        (_independent(family="explicit", values=[0.5, 1.5]), "spec.model.marginal.values[1]"),
        (_independent(family="explicit", values=[0.5], tail=2.0), "spec.model.marginal.tail"),
    ],
)
def test_model_errors_name_the_entry(model, field):
    with pytest.raises(SpecError) as exc:
        parse_spec({"model": model})
    assert exc.value.field == field


_MARKOV_TEXT = """{"model": {"family": "markov", "transition": [[%s, 0.5], [0.5, 0.5]],
    "initial": [1.0, %s], "events": {"mode": "constant", "members": [0]}}%s}"""
_POWER_TEXT = """{"model": {"family": "independent",
    "marginal": {"family": "powerlaw", "scale": %s, "exponent": %s}}}"""


@pytest.mark.parametrize(
    "text, field",
    [
        (_MARKOV_TEXT % ("NaN", "0.0", ""), "spec.model.transition[0][0]"),
        (_MARKOV_TEXT % ("0.5", "Infinity", ""), "spec.model.initial[1]"),
        (_MARKOV_TEXT % ("0.5", "0.0", ', "defaults": {"tol": NaN}'), "spec.defaults.tol"),
        (_POWER_TEXT % ("1.0", "1e999"), "spec.model.marginal.exponent"),
        (_POWER_TEXT % ("NaN", "2.0"), "spec.model.marginal.scale"),
        (_POWER_TEXT % ("1.0", "-Infinity"), "spec.model.marginal.exponent"),
        (_POWER_TEXT % ("1.0", "1" + "0" * 400), "spec.model.marginal.exponent"),
    ],
    ids=["nan-row", "inf-initial", "nan-tol", "1e999", "nan-scale", "-inf", "int-past-float"],
)
def test_non_finite_numbers_rejected(tmp_path, text, field):
    path = tmp_path / "spec.json"
    path.write_text(text)
    with pytest.raises(SpecError, match="finite") as exc:
        load_spec(path)
    assert exc.value.field == field
