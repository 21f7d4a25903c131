"""One-value mutations of a parsed JSON file, for the loader fuzz tests.

:func:`mutated` draws a copy of a file with one value replaced by an
arbitrary JSON value (booleans, null, NaN and infinities, integers beyond
float range, strings, lists and objects), or with one object member deleted.
"""
import copy
import math

from hypothesis import strategies as st

SCALARS = (
    st.none()
    | st.booleans()
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.sampled_from([10**400, -(10**400)])  # integers no float holds
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
)
# each kind of scalar as often as a list or object: recursive() alone draws containers nine times in ten
JSON_VALUES = SCALARS | st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=5,
)


def locations(value, path=()):
    """The key path of ``value`` itself and of every object member and list entry in it."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from locations(child, (*path, key))


@st.composite
def mutated(draw, raw):
    """A copy of ``raw`` with the value at one location replaced, or, in an object, deleted.

    The location's shape, its key path with the list indices left open, is
    drawn first, so that a file's few records are mutated as often as its
    many numbers.
    """
    shapes: dict[tuple, list[tuple]] = {}
    for where in locations(raw):
        shapes.setdefault(tuple(None if isinstance(key, int) else key for key in where), []).append(where)
    where = draw(st.sampled_from(list(shapes.values())).flatmap(st.sampled_from))
    if not where:
        return draw(JSON_VALUES)
    raw = copy.deepcopy(raw)
    parent = raw
    for key in where[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:  # a deletion one time in four
        del parent[where[-1]]
    else:
        parent[where[-1]] = draw(JSON_VALUES)
    return raw
