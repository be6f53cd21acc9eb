"""Ergonomic construction of kernels.

The builder gives kernel authors Fortran-like loop syntax::

    b = KernelBuilder("saxpy")
    x = b.array("x", (n,), DP)
    y = b.array("y", (n,), DP)
    a = b.scalar("a", DP, init=2.0)
    with b.loop(0, n) as i:
        b.assign(y[i], y[i] + a.value() * x[i])
    kernel = b.build()

Loops nest through ``with`` blocks; ``assign`` takes a :class:`Load` as
the left-hand side and converts it into a store, which keeps indexing
syntax identical on both sides of the ``=``.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional, Sequence, Union

from .expr import (Array, Const, Expr, IndexExprLike, IndexVar, IRError,
                   Load)
from .kernel import Kernel, SourceLoc
from .stmt import Block, Loop, Stmt, Store, fresh_index


class KernelBuilder:
    """Incrementally assembles a :class:`~repro.ir.kernel.Kernel`."""

    def __init__(self, name: str, srcloc: Optional[SourceLoc] = None):
        self.name = name
        self.srcloc = srcloc
        self._arrays: List[Array] = []
        self._inputs: Optional[List[str]] = None
        self._init_values: Dict[str, float] = {}
        # Stack of open statement lists; index 0 is the kernel body.
        self._blocks: List[List[Stmt]] = [[]]
        self._built = False

    # -- declarations --------------------------------------------------------

    def array(self, name: str, shape: Sequence[int], dtype) -> Array:
        """Declare an array.  Declaration order is the memory-dump order."""
        if any(a.name == name for a in self._arrays):
            raise IRError(f"array {name!r} declared twice")
        arr = Array(name, shape, dtype)
        self._arrays.append(arr)
        return arr

    def scalar(self, name: str, dtype, init: Optional[float] = None) -> Array:
        """Declare a rank-0 array (an accumulator or parameter)."""
        arr = self.array(name, (), dtype)
        if init is not None:
            self._init_values[name] = float(init)
        return arr

    def mark_inputs(self, *arrays: Union[Array, str]) -> None:
        """Declare the kernel's input arrays (see :attr:`Kernel.inputs`).

        May be called repeatedly; names accumulate.  Calling it at all
        opts the kernel into the lint ``uninit`` contract — arrays read
        but neither stored nor marked become L401 findings.
        """
        if self._inputs is None:
            self._inputs = []
        for arr in arrays:
            name = arr if isinstance(arr, str) else arr.name
            if not any(a.name == name for a in self._arrays):
                raise IRError(f"mark_inputs: array {name!r} not declared")
            if name not in self._inputs:
                self._inputs.append(name)

    def init_value(self, array: Array, value: float) -> None:
        """Record the initial fill value used when materialising storage."""
        self._init_values[array.name] = float(value)

    @property
    def init_values(self) -> Dict[str, float]:
        return dict(self._init_values)

    # -- statements ----------------------------------------------------------

    @contextlib.contextmanager
    def loop(self, lower: IndexExprLike, upper: IndexExprLike,
             name: Optional[str] = None):
        """Open a counted loop; yields the induction variable."""
        var = IndexVar(name) if name else fresh_index()
        self._blocks.append([])
        try:
            yield var
        finally:
            body = self._blocks.pop()
            self._emit(Loop.create(var, lower, upper, body))

    def assign(self, target: Load, value: Union[Expr, int, float]) -> None:
        """Emit ``target = value``; ``target`` must be an array load."""
        if not isinstance(target, Load):
            raise IRError("assignment target must be an array reference")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = Const(float(value) if target.array.dtype.is_float
                          else value, target.array.dtype)
        if not isinstance(value, Expr):
            raise IRError(f"cannot assign {value!r}")
        self._emit(Store(target.array, target.indices, value))

    def _emit(self, stmt: Stmt) -> None:
        if self._built:
            raise IRError("builder already finalised")
        self._blocks[-1].append(stmt)

    # -- finalisation ---------------------------------------------------------

    def build(self) -> Kernel:
        if len(self._blocks) != 1:
            raise IRError("unclosed loop at kernel build time")
        self._built = True
        inputs = tuple(self._inputs) if self._inputs is not None else None
        return Kernel(self.name, tuple(self._arrays),
                      Block(tuple(self._blocks[0])), self.srcloc,
                      inputs=inputs)


def simple_loop_kernel(name: str, n: int, make_body,
                       srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Build a kernel consisting of one loop ``for i in [0, n)``.

    ``make_body(builder, i)`` declares arrays and emits the body; a
    convenience for the many single-loop suite kernels.
    """
    b = KernelBuilder(name, srcloc)
    with b.loop(0, n) as i:
        make_body(b, i)
    return b.build()
