"""Every keyword a suite's verifier takes is one that a ``verify`` value
sets.  ``catalog.SUITES`` maps each CLI value a suite reads to the
verifier keyword it sets; a keyword outside that map can be set only by
a direct call, so it is a corpus setting that no ``twodual verify`` run
can reach.  ``verify_ultimate``'s ``budget`` is the one exception: it
bounds the wall time, not the corpus."""

import inspect

from twodual.instances import catalog, verifiers

EXCEPTIONS = {"verify_ultimate": {"budget"}}


def keywords(fn) -> set[str]:
    """Every parameter name of ``fn``, a ``*args`` or ``**kwargs`` one
    included, so that a catch-all parameter shows up too."""
    return set(inspect.signature(fn).parameters)


def test_the_check_sees_every_parameter_kind():
    def f(a, /, b, *rest, c=1, **more):
        pass

    assert keywords(f) == {"a", "b", "rest", "c", "more"}


def test_each_verifier_takes_only_the_keywords_its_suite_sets():
    assert len(catalog.SUITES) == 7
    for suite, (name, reads) in catalog.SUITES.items():
        verifier = getattr(verifiers, name)
        expected = set(reads.values()) | EXCEPTIONS.get(name, set())
        assert keywords(verifier) == expected, suite


def test_the_equivalence_sweep_takes_no_keywords():
    # Criterion 06 runs it at one fixed corpus; no suite dispatches to it.
    assert keywords(verifiers.verify_hom_equivalence) == set()
