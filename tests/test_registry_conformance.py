"""Registry conformance, checked by building the registries.

The AutoML search draws every pipeline from ``build_config_space``
(preprocessing → feature preprocessing → classifier) and every feature
from ``repro.similarity.registry.MEASURES``.  These tests sample the
space until every branch is reached, build each sampled configuration
and pickle every measure, so a renamed class, a misspelled constructor
keyword, a dropped ``random_state``, an ``ALL_MODELS`` entry with no
builder or an unpicklable measure function fails here instead of in a
search run.  The conventions of the trigger and resolver registries
(subclass, own unique ``name``, concrete method) are checked beside
their behaviour in ``test_monitor_triggers.py`` and
``test_resolve_fusion.py``; here every resolver must be reachable by
the name ``RecordFusion`` configurations use.
"""

import inspect
import pickle

import numpy as np
import pytest

from repro import ml
from repro.automl.components import (
    ALL_MODELS,
    build_config_space,
    build_pipeline,
)
from repro.resolve import ALL_RESOLVERS, make_resolver
from repro.similarity.registry import MEASURES

#: A ``random_state`` no default uses, so a dropped keyword shows.
SENTINEL_SEED = 987_654_321

#: Enough samples at seed 0 to reach every branch of the "all" space.
N_SAMPLES = 600

SPACE = build_config_space(models="all", forest_size=4)
_RNG = np.random.default_rng(0)
CONFIGS = [SPACE.sample(_RNG) for _ in range(N_SAMPLES)]

#: One value pair per measure kind, for the pickle round trip.
VALUE_PAIRS = {
    "string": ("Jon Smith Jr", "John Smith"),
    "numeric": (12.5, 13.0),
    "boolean": (True, False),
}


def _score_func_child(name, choice):
    """The ``score_func`` categorical active under ``name == choice``."""
    for child, condition in SPACE.conditions.items():
        if (condition.parent == name and choice in condition.values
                and child.endswith(":score_func")):
            return child
    return None


def _expected_branches():
    """Every ``__choice__`` value, split by its ``score_func`` if any."""
    branches = set()
    for name, hp in SPACE.hyperparameters.items():
        if not name.endswith(":__choice__"):
            continue
        for choice in hp.choices:
            child = _score_func_child(name, choice)
            funcs = SPACE.hyperparameters[child].choices if child else [None]
            branches.update((name, choice, func) for func in funcs)
    return branches


def _branches_of(config):
    return {(name, value, config.get(_score_func_child(name, value)))
            for name, value in config.items()
            if name.endswith(":__choice__")}


def test_sampling_reaches_every_branch():
    expected = _expected_branches()
    assert {("classifier:__choice__", model, None)
            for model in ALL_MODELS} <= expected
    reached = set().union(*(_branches_of(config) for config in CONFIGS))
    assert reached == expected, sorted(expected - reached, key=str)


def test_every_sampled_configuration_builds():
    for config in CONFIGS:
        pipeline = build_pipeline(config, random_state=SENTINEL_SEED)
        steps = pipeline.pipeline.steps
        assert steps[-1][0] == "classifier"
        for name, step in steps:
            where = f"{name} of {config['classifier:__choice__']}"
            assert isinstance(step, ml.BaseEstimator), where
            required = (("fit", "predict", "predict_proba")
                        if name == "classifier" else ("fit", "transform"))
            for method in required:
                assert callable(getattr(step, method, None)), \
                    f"{where} has no {method}()"
            params = step.get_params()
            assert ml.clone(step).get_params() == params, where
            if "random_state" in inspect.signature(type(step)).parameters:
                assert params["random_state"] == SENTINEL_SEED, \
                    f"{where} is not passed the trial's random_state"


def test_oversampling_configuration_fits():
    config = next(config for config in CONFIGS
                  if config["classifier:__choice__"] == "gaussian_nb"
                  and config.get("balancing:strategy") == "weighting")
    pipeline = build_pipeline(config, random_state=SENTINEL_SEED)
    rng = np.random.default_rng(1)
    X = rng.random((40, 5))
    y = (np.arange(40) < 8).astype(int)
    proba = pipeline.fit(X, y).predict_proba(X)
    assert proba.shape == (40, 2)
    assert np.allclose(proba.sum(axis=1), 1.0)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_every_model_builds_a_full_estimator_surface(model):
    """Each registered model alone yields a pipeline whose steps all
    expose the search's required surface."""
    space = build_config_space(models=(model,), forest_size=4)
    config = space.sample(np.random.default_rng(0))
    pipeline = build_pipeline(config, random_state=0)
    for method in ("fit", "predict", "predict_proba"):
        assert callable(getattr(pipeline, method))
    for name, step in pipeline.pipeline.steps:
        assert callable(getattr(step, "get_params")), name
        assert callable(getattr(step, "set_params")), name
        params = step.get_params()
        assert isinstance(params, dict), name


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_every_measure_survives_a_pickle_round_trip(name):
    """Each measure pickles, so its function must be importable by name
    (module level, no lambda)."""
    measure = MEASURES[name]
    restored = pickle.loads(pickle.dumps(measure))
    assert restored.name == name
    v1, v2 = VALUE_PAIRS[measure.kind]
    assert restored(v1, v2) == measure(v1, v2)


@pytest.mark.parametrize("cls", ALL_RESOLVERS, ids=lambda cls: cls.name)
def test_every_resolver_is_reachable_by_name(cls):
    assert type(make_resolver(cls.name)) is cls
