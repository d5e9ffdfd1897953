"""Instance files: the libyaml and pure-Python YAML paths agree byte for
byte, and a file with any section replaced by junk fails with ConfigError."""
import copy

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vnfplan import config
from vnfplan.config import (
    default_model,
    default_services,
    instance_to_dict,
    load_instance,
    save_instance,
)
from vnfplan.model import ConfigError, validate_instance
from vnfplan.scenario import ScenarioConfig, build_instance


def _round_trip(path, monkeypatch, loader, dumper):
    monkeypatch.setattr(config, "_Loader", loader)
    monkeypatch.setattr(config, "_Dumper", dumper)
    inst = build_instance(ScenarioConfig(mix_size=9, seed=4))
    save_instance(path, inst, model=default_model(), services=default_services())
    return inst, path.read_bytes(), load_instance(path)


def test_pure_python_yaml_matches_the_default_path(tmp_path, monkeypatch):
    inst_py, text_py, loaded_py = _round_trip(tmp_path / "pure.yaml", monkeypatch,
                                              yaml.SafeLoader, yaml.SafeDumper)
    assert loaded_py == inst_py
    defaults_py = config._load_defaults.__wrapped__()
    if not yaml.__with_libyaml__:
        return  # the pure-Python pair is the default; nothing to cross-check
    inst, text, loaded = _round_trip(tmp_path / "libyaml.yaml", monkeypatch,
                                     yaml.CSafeLoader, yaml.CSafeDumper)
    assert text == text_py
    assert loaded == loaded_py == inst
    assert config._load_defaults.__wrapped__() == defaults_py


def test_default_path_uses_libyaml_when_present():
    if yaml.__with_libyaml__:
        assert (config._Loader, config._Dumper) == (yaml.CSafeLoader, yaml.CSafeDumper)
    else:
        assert (config._Loader, config._Dumper) == (yaml.SafeLoader, yaml.SafeDumper)


def _paths(node, path=()):
    """Every key path into a plain-data tree, the root excluded."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


# A generated instance plus one chain given by service name alone, so the
# compute model's coefficients are read too.
_BASE = instance_to_dict(build_instance(ScenarioConfig(mix_size=2, edge_sites="center")),
                         model=default_model(), services=default_services())
_BASE["chains"].append({"id": "s0", "rrh": "r00", "service": "eMBB"})
_PATHS = sorted(_paths(_BASE), key=repr)
_JUNK = [1, -1, 0, 1.5, "x", None, [], [1, 2], {}, {"a": 1}, [[1]], {"r0": [1]},
         True, float("inf"), float("nan"), 1e300]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(_PATHS), st.sampled_from(_JUNK)),
                min_size=1, max_size=2))
def test_junk_sections_raise_config_error(tmp_path, edits):
    data = copy.deepcopy(_BASE)
    for path, value in edits:
        node = data
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue   # an earlier edit replaced this path's parent
    path = tmp_path / "junk.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    try:
        inst = load_instance(path)
    except ConfigError:
        return
    validate_instance(inst)   # reports problems, never raises


def test_missing_sections_raise_config_error(tmp_path):
    path = tmp_path / "inst.yaml"
    path.write_text(yaml.safe_dump({"chains": []}), encoding="utf-8")
    with pytest.raises(ConfigError, match="has no infrastructure section"):
        load_instance(path)
    data = copy.deepcopy(_BASE)
    data["chains"].append({"id": "bare", "rrh": "r00"})
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    with pytest.raises(ConfigError, match="chain bare needs either a service or a vnfs list"):
        load_instance(path)


@pytest.mark.parametrize("entry", [{"rrh": "r00", "service": "eMBB"},
                                   {"id": None, "rrh": "r00", "service": "eMBB"},
                                   {"id": "s1", "service": "eMBB"},
                                   {"id": "s1", "rrh": None, "service": "eMBB"}])
def test_chain_entry_needs_an_id_and_an_rrh(tmp_path, entry):
    data = copy.deepcopy(_BASE)
    data["chains"].append(entry)
    path = tmp_path / "inst.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"chain entry \{.*\} needs an id and an rrh"):
        load_instance(path)


def test_integer_fields_take_whole_numbers(tmp_path):
    """3.0 and "3" read as 3; 250.7 is an error, never 250."""
    path = tmp_path / "inst.yaml"
    data = copy.deepcopy(_BASE)
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    expected = load_instance(path)
    data["services"]["eMBB"].update(rb=250.0, mcs_dl="27")
    data["infrastructure"]["clouds"][1]["id"] = 1.0
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert load_instance(path) == expected
    data["services"]["eMBB"]["rb"] = 250.7
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    with pytest.raises(ConfigError, match="rb must be a whole number, got 250.7"):
        load_instance(path)
