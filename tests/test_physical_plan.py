"""Unit tests for physical operators and plan surgery/cloning."""

import sys

import pytest

from repro import PigSystem
from repro.common.errors import PlanError
from repro.data import DataType, Field, Schema
from repro.logical import build_logical_plan
from repro.physical import logical_to_physical, PhysicalPlan
from repro.physical.operators import (
    POFilter,
    POLoad,
    POSplit,
    POStore,
)
from repro.piglatin import expressions, nested, parse_query

from tests.helpers import load_querygen, Q1_TEXT, Q2_TEXT
from tests.test_nested_foreach import L4_STYLE


def physical(text):
    return logical_to_physical(build_logical_plan(parse_query(text)))


SCHEMA = Schema([Field("x", DataType.INT)])


class TestSignatures:
    def test_load_signature_includes_path_and_version(self):
        load = POLoad("/data/t", SCHEMA, version=3)
        assert load.signature() == "LOAD[/data/t@v3]"

    def test_store_signature_hides_path(self):
        load = POLoad("/data/t", SCHEMA)
        a = POStore(load, "/out/a")
        b = POStore(load, "/out/b")
        assert a.signature() == b.signature() == "STORE"

    def test_signatures_stable_across_compilations(self):
        first = [op.signature() for op in physical(Q2_TEXT).operators()]
        second = [op.signature() for op in physical(Q2_TEXT).operators()]
        assert first == second

    def test_join_signature_distinguishes_key_sides(self):
        plan = physical(Q1_TEXT)
        (join,) = [op for op in plan.operators() if op.kind == "join"]
        assert join.signature() == "JOIN[$0|$0]"

    def test_nested_foreach_signature_differs(self):
        nested = physical("""
        A = load '/d' as (u:chararray, v:int);
        C = group A by u;
        D = foreach C { x = A.v; y = distinct x; generate group, COUNT(y); };
        store D into '/o';
        """)
        flat = physical("""
        A = load '/d' as (u:chararray, v:int);
        C = group A by u;
        D = foreach C generate group, COUNT(A);
        store D into '/o';
        """)
        nested_sigs = {op.signature() for op in nested.operators()}
        flat_sigs = {op.signature() for op in flat.operators()}
        assert any("inner(" in sig for sig in nested_sigs)
        assert nested_sigs != flat_sigs


class TestPlanStructure:
    def test_operators_topological(self):
        plan = physical(Q2_TEXT)
        positions = {id(op): pos for pos, op in enumerate(plan.operators())}
        for op in plan.operators():
            for parent in op.inputs:
                assert positions[id(parent)] < positions[id(op)]

    def test_loads_and_stores(self):
        plan = physical(Q1_TEXT)
        assert {load.path for load in plan.loads()} == {
            "/data/page_views", "/data/users"}
        assert [store.path for store in plan.stores()] == ["/out/L2_out"]

    def test_consumers_table(self):
        plan = physical(Q1_TEXT)
        consumers = plan.consumers()
        (join,) = [op for op in plan.operators() if op.kind == "join"]
        assert [op.kind for op in consumers[join]] == ["store"]

    def test_consumer_reading_an_operator_twice_is_listed_once(self):
        plan = physical("""
            A = load '/data/t' as (user:chararray, timespent:int);
            B = filter A by timespent > 3;
            C = union B, B;
            store C into '/out/u';
        """)
        (union,) = [op for op in plan.operators() if op.kind == "union"]
        assert union.inputs[0] is union.inputs[1]
        consumers = plan.consumers()
        assert consumers[union.inputs[0]] == [union]
        for op in plan.operators():
            assert consumers[op] == plan.successors_of(op)

    def test_validate_rejects_non_store_sink(self):
        load = POLoad("/d", SCHEMA)
        plan = PhysicalPlan([load])
        with pytest.raises(PlanError):
            plan.validate()

    def test_empty_plan_rejected(self):
        with pytest.raises(PlanError):
            PhysicalPlan([])

    def test_remove_last_sink_rejected(self):
        plan = physical(Q1_TEXT)
        with pytest.raises(PlanError):
            plan.remove_sink(plan.stores()[0])

    def test_replace_input_unknown_edge_raises(self):
        plan = physical(Q1_TEXT)
        store = plan.stores()[0]
        stranger = POLoad("/other", SCHEMA)
        with pytest.raises(PlanError):
            plan.replace_input(store, stranger, stranger)


class TestCloning:
    def test_clone_is_deep_and_equivalent(self):
        plan = physical(Q2_TEXT)
        clone, mapping = plan.clone()
        assert len(clone.operators()) == len(plan.operators())
        original_ids = {id(op) for op in plan.operators()}
        for op in clone.operators():
            assert id(op) not in original_ids
        assert [op.signature() for op in clone.operators()] == [
            op.signature() for op in plan.operators()]

    def test_clone_preserves_stage_annotations(self):
        plan = physical(Q1_TEXT)
        for op in plan.operators():
            op.stage = "map"
        clone, _ = plan.clone()
        assert all(op.stage == "map" for op in clone.operators())

    def test_clone_subgraph_strips_splits(self):
        plan = physical(Q1_TEXT)
        (join,) = [op for op in plan.operators() if op.kind == "join"]
        left = join.inputs[0]
        split = POSplit(left)
        split.injected = True
        plan.replace_input(join, left, split)
        clone, _ = plan.clone_subgraph(join)
        kinds = set()

        def walk(op):
            kinds.add(op.kind)
            for parent in op.inputs:
                walk(parent)

        walk(clone)
        assert "split" not in kinds
        assert "join" in kinds

    def test_mutating_clone_leaves_original_alone(self):
        plan = physical(Q1_TEXT)
        clone, _ = plan.clone()
        (join,) = [op for op in clone.operators() if op.kind == "join"]
        new_load = POLoad("/stored/x", join.schema)
        for consumer in clone.successors_of(join):
            clone.replace_input(consumer, join, new_load)
        assert any(op.kind == "join" for op in plan.operators())
        assert not any(op.kind == "join" for op in clone.operators())


class TestOperatorCopying:
    def test_copy_with_inputs_carries_flags(self):
        load = POLoad("/d", SCHEMA)
        fil = POFilter(load, _TruePredicate())
        fil.injected = True
        fil.alias = "B"
        copy = fil.copy_with_inputs([load])
        assert copy.injected
        assert copy.alias == "B"
        assert copy.op_id != fil.op_id

    def test_load_copy_rejects_inputs(self):
        load = POLoad("/d", SCHEMA)
        with pytest.raises(PlanError):
            load.copy_with_inputs([load])


class _TruePredicate:
    canonical = "true"

    @staticmethod
    def fn(row):
        return True


class TestKeyTypeChecks:
    """JOIN and COGROUP key lists go through one type check: paired keys
    must have equal types, or both be numeric."""

    LOADS = ("A = load '/data/a' as (k:int, v:int);"
             "B = load '/data/b' as (k:chararray, w:int);")

    def test_join_key_type_mismatch(self):
        with pytest.raises(PlanError, match="join key type mismatch"):
            physical(self.LOADS + "C = join A by k, B by k;"
                     "store C into '/out/c';")

    def test_cogroup_key_type_mismatch_names_both_types(self):
        with pytest.raises(PlanError, match="cogroup key type mismatch") as info:
            physical(self.LOADS + "C = cogroup A by k, B by k;"
                     "store C into '/out/c';")
        message = str(info.value)
        assert "INT" in message and "CHARARRAY" in message

    def test_cogroup_checks_every_input_against_the_first(self):
        with pytest.raises(PlanError, match="cogroup key type mismatch"):
            physical(self.LOADS + "C = cogroup A by k, A by v, B by k;"
                     "store C into '/out/c';")

    def test_cogroup_accepts_int_against_double(self):
        plan = physical(
            "A = load '/data/a' as (k:int);"
            "B = load '/data/b' as (k:double);"
            "C = cogroup A by k, B by k;"
            "store C into '/out/c';")
        assert "COGROUP[$0|$0]" in [op.signature() for op in plan.operators()]


class TestCompileOnce:
    """Every expression, predicate and nested block is compiled once per
    ``PigSystem.compile``: the logical operators keep what they compile
    to infer their schemas, and translation passes it through."""

    COUNTED = ("compile_expression", "compile_predicate",
               "compile_inner_pipeline")

    @pytest.fixture
    def counts(self, monkeypatch):
        """Top-level calls of the three compilers from anywhere in
        ``repro``; calls they make to each other are not counted."""
        originals = {"compile_expression": expressions.compile_expression,
                     "compile_predicate": expressions.compile_predicate,
                     "compile_inner_pipeline": nested.compile_inner_pipeline}
        counts = dict.fromkeys(self.COUNTED, 0)
        depth = [0]

        def counting(name, fn):
            def counted(*args):
                if not depth[0]:
                    counts[name] += 1
                depth[0] += 1
                try:
                    return fn(*args)
                finally:
                    depth[0] -= 1
            return counted

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for name, fn in originals.items():
                    if getattr(module, name, None) is fn:
                        monkeypatch.setattr(module, name, counting(name, fn))
        return counts

    def test_querygen_pool(self, counts):
        system = PigSystem()
        for query in load_querygen().querygen(7, 200):
            system.compile(query.text)
        assert counts == {"compile_expression": 1280, "compile_predicate": 233,
                          "compile_inner_pipeline": 0}

    def test_nested_foreach(self, counts):
        PigSystem().compile(L4_STYLE)
        # B's two items, C's key, D's two items; D's one inner block
        assert counts == {"compile_expression": 5, "compile_predicate": 0,
                          "compile_inner_pipeline": 1}
