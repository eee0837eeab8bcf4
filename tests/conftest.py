import pytest

from ultranet.cli import load_preset, parse_config, scenario_from_config, spec_from_config


@pytest.fixture(scope="session")
def demo_scenario():
    """The bundled folding_demo preset as a FoldingScenario (paper convention)."""
    cfg = parse_config(load_preset("folding_demo"))
    return scenario_from_config(cfg, spec_from_config(cfg))
