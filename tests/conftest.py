"""Shared fixtures: small descriptions used across the test suite."""

from __future__ import annotations

import pytest

from repro.isdl import parse_description

#: a compact scasb-like searcher (simplified: no rf/df/rfz flags).
SEARCH_TEXT = """
search.instruction := begin
    ** SOURCE.ACCESS **
        di<15:0>,                       ! string address
        cx<15:0>,                       ! string length
        fetch()<7:0> := begin
            fetch <- Mb[ di ];
            di <- di + 1;
        end
    ** STATE **
        zf<>,
        al<7:0>
    ** STRING.PROCESS **
        search.execute() := begin
            input (di, cx, al);
            zf <- 0;
            repeat
                exit_when (cx = 0);
                cx <- cx - 1;
                zf <- ((al - fetch()) = 0);
                exit_when (zf);
            end_repeat;
            output (zf, di, cx);
        end
end
"""

#: a minimal copy loop (operator style, abstract integers).
COPY_TEXT = """
copy.operation := begin
    ** ARGS **
        Src: integer,
        Dst: integer,
        Len: integer
    ** PROCESS **
        copy.execute() := begin
            input (Src, Dst, Len);
            repeat
                exit_when (Len = 0);
                Mb[ Dst ] <- Mb[ Src ];
                Src <- Src + 1;
                Dst <- Dst + 1;
                Len <- Len - 1;
            end_repeat;
        end
end
"""

#: indexed copy (the Pascal sassign shape).
INDEXED_COPY_TEXT = """
icopy.operation := begin
    ** ARGS **
        Src: integer,
        Dst: integer,
        Len: integer,
        i: integer
    ** PROCESS **
        icopy.execute() := begin
            input (Src, Dst, Len);
            i <- 0;
            repeat
                exit_when (i = Len);
                Mb[ Dst + i ] <- Mb[ Src + i ];
                i <- i + 1;
            end_repeat;
        end
end
"""


@pytest.fixture
def search_desc():
    return parse_description(SEARCH_TEXT)


@pytest.fixture
def copy_desc():
    return parse_description(COPY_TEXT)


@pytest.fixture
def indexed_copy_desc():
    return parse_description(INDEXED_COPY_TEXT)


@pytest.fixture
def plant_lowering(monkeypatch):
    """``plant(op, wrong)`` lowers vector ``op`` as ``wrong``.

    The kernel cache is cleared on both sides of the plant so no
    correct kernel survives into the broken world and no broken kernel
    leaks out of it.  Without numpy no batch runs the kernel (every
    batch runs on the interpreter), so there is no bug to plant.
    """
    from repro.semantics import vectorized

    if not vectorized.HAVE_NUMPY:
        pytest.skip("the kernel runs only on numpy lanes")

    def plant(op, wrong):
        vectorized.clear_vector_cache()
        monkeypatch.setitem(
            vectorized._VECTOR_BINOPS, op, vectorized._VECTOR_BINOPS[wrong]
        )

    yield plant
    vectorized.clear_vector_cache()


@pytest.fixture
def planted_vector_bug(plant_lowering):
    """Lower vector ``-`` as ``+`` — a deliberate lowering bug."""
    plant_lowering("-", "+")
