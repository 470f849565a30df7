import pytest

from acceptance_log import LINES
from levelsat.construction import build_chain
from levelsat.theory import PLUGINS, get_plugin

PLUGIN_NAMES = tuple(sorted(PLUGINS))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if LINES:
        terminalreporter.write_sep("-", "acceptance gate")
        for line in LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def chains12():
    """12-stage chain per bundled plugin, built once for the whole run."""
    return {name: build_chain(get_plugin(name), 12) for name in PLUGIN_NAMES}


@pytest.fixture(scope="session")
def equiv30():
    return build_chain(get_plugin("generic_equivalence"), 30)


@pytest.fixture(scope="session")
def equiv60():
    return build_chain(get_plugin("generic_equivalence"), 60)


@pytest.fixture(scope="session")
def iset30():
    return build_chain(get_plugin("infinite_set"), 30)


@pytest.fixture(scope="session")
def rado30():
    return build_chain(get_plugin("random_graph"), 30)


@pytest.fixture(scope="session")
def henson30():
    return build_chain(get_plugin("henson_triangle_free"), 30)
