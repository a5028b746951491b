"""Logical plans: the typed operator DAG built from a parsed query.

The logical layer resolves aliases, compiles every expression once
against its inputs' schemas, infers schemas, and validates the query;
each operator keeps its compiled expressions. The physical layer
(:mod:`repro.physical`) then translates it 1:1 into executable operators
that reuse them; the MR compiler (:mod:`repro.mrcompiler`) splits those
into MapReduce jobs — mirroring Pig's pipeline (paper Section 6.1),
without Pig's logical optimizer: ReStore matches physical plans.
"""

from repro.logical.builder import build_logical_plan
from repro.logical.plan import LogicalPlan

__all__ = ["build_logical_plan", "LogicalPlan"]
