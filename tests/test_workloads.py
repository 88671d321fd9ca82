"""Tests for the workload substrate (synthetic generator, kernels, trees, suites)."""

import pytest
from hypothesis import given, strategies as st

from repro.dfg import Opcode
from repro.dfg.validate import validate_graph
from repro.workloads import (
    KERNEL_FACTORIES,
    SuiteConfig,
    SyntheticBlockSpec,
    WorkloadSuite,
    all_kernels,
    build_kernel,
    build_suite,
    generate_basic_block,
    generate_suite,
    inverted_tree_dfg,
    kernel_names,
    paper_tree_suite,
    random_small_dag,
    repetition_suite,
    size_cluster,
    tree_dfg,
)
from repro.workloads.repetition import RepetitionBlockSpec, generate_repetition_block


class TestSyntheticGenerator:
    def test_deterministic_given_seed(self):
        spec = SyntheticBlockSpec(num_operations=20, seed=42)
        first = generate_basic_block(spec)
        second = generate_basic_block(spec)
        assert list(first.edges()) == list(second.edges())
        assert [n.opcode for n in first.nodes()] == [n.opcode for n in second.nodes()]

    def test_different_seeds_differ(self):
        a = generate_basic_block(SyntheticBlockSpec(num_operations=20, seed=1))
        b = generate_basic_block(SyntheticBlockSpec(num_operations=20, seed=2))
        assert list(a.edges()) != list(b.edges())

    def test_requested_size_honoured(self):
        spec = SyntheticBlockSpec(num_operations=35, num_external_inputs=5, seed=3)
        graph = generate_basic_block(spec)
        assert len(graph.operation_nodes()) == 35
        assert len(graph.external_inputs()) == 5

    def test_memory_fraction_controls_forbidden_density(self):
        none = generate_basic_block(
            SyntheticBlockSpec(num_operations=60, memory_fraction=0.0, seed=7)
        )
        heavy = generate_basic_block(
            SyntheticBlockSpec(num_operations=60, memory_fraction=0.5, seed=7)
        )
        forbidden_ops_none = [
            v for v in none.operation_nodes() if none.node(v).forbidden
        ]
        forbidden_ops_heavy = [
            v for v in heavy.operation_nodes() if heavy.node(v).forbidden
        ]
        assert len(forbidden_ops_none) == 0
        assert len(forbidden_ops_heavy) > 5

    @given(st.integers(min_value=0, max_value=500))
    def test_generated_blocks_are_valid_dags(self, seed):
        graph = generate_basic_block(SyntheticBlockSpec(num_operations=15, seed=seed))
        assert graph.is_dag()
        assert validate_graph(graph, raise_on_error=False).ok

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticBlockSpec(num_operations=0)
        with pytest.raises(ValueError):
            SyntheticBlockSpec(num_operations=5, memory_fraction=1.5)
        with pytest.raises(ValueError):
            SyntheticBlockSpec(num_operations=5, locality=0)

    def test_generate_suite_covers_sizes(self):
        suite = generate_suite([10, 20, 30], blocks_per_size=2)
        assert len(suite) == 6
        sizes = sorted(len(g.operation_nodes()) for g in suite)
        assert sizes == [10, 10, 20, 20, 30, 30]

    def test_random_small_dag_helper(self):
        graph = random_small_dag(5)
        assert graph.is_dag()
        assert len(graph.operation_nodes()) == 8


class TestKernels:
    def test_registry_and_names_agree(self):
        assert set(kernel_names()) == set(KERNEL_FACTORIES)
        assert len(all_kernels()) == len(KERNEL_FACTORIES)

    @pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
    def test_each_kernel_is_valid(self, name):
        graph = build_kernel(name)
        assert graph.is_dag()
        report = validate_graph(graph, raise_on_error=False)
        assert report.ok, report.errors
        assert len(graph.operation_nodes()) >= 3
        assert graph.live_out_nodes(), "every kernel produces at least one result"

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            build_kernel("not_a_kernel")

    def test_fir_contains_forbidden_loads(self):
        graph = build_kernel("fir_tap_pair")
        loads = [v for v in graph.node_ids() if graph.node(v).opcode is Opcode.LOAD]
        assert loads and all(graph.node(v).forbidden for v in loads)

    def test_kernels_are_fresh_instances(self):
        first = build_kernel("crc32_step")
        second = build_kernel("crc32_step")
        assert first is not second
        first.add_node(Opcode.ADD)
        assert second.num_nodes != first.num_nodes


class TestTrees:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_tree_structure(self, depth):
        graph = tree_dfg(depth)
        assert len(graph.external_inputs()) == 2 ** depth
        assert len(graph.operation_nodes()) == 2 ** depth - 1
        assert graph.critical_path_length() == depth

    def test_paper_suite_depths(self):
        suite = paper_tree_suite()
        assert [g.num_nodes for g in suite] == [31, 63, 127, 255]

    def test_inverted_tree(self):
        graph = inverted_tree_dfg(3)
        assert graph.is_dag()
        assert len(graph.live_out_nodes()) == 4

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            tree_dfg(0)


class TestRepetitionGenerator:
    def test_suite_shape_and_names(self):
        suite = repetition_suite(copies_per_idiom=3, repetitions=8)
        assert len(suite) == 9
        names = [graph.name for graph in suite]
        assert len(set(names)) == len(names)
        assert all(name.startswith("rep_") for name in names)

    def test_unknown_idiom_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            generate_repetition_block(RepetitionBlockSpec(idiom="nope", repetitions=2))

    def test_copies_are_structurally_identical(self):
        suite = repetition_suite(idioms=("unpack",), copies_per_idiom=2, repetitions=3)
        first, second = list(suite)

        def shape(graph):
            return (
                [(n.opcode, n.forbidden, n.live_out) for n in graph.nodes()],
                sorted(graph.edges()),
            )

        # structural_hash covers the graph *name*, so renamed copies differ
        # there by design; the wiring and flags must coincide exactly.
        assert first.structural_hash() != second.structural_hash()
        assert shape(first) == shape(second)


class TestMiBenchLikeSuite:
    def test_default_suite_composition(self):
        suite = build_suite(SuiteConfig(num_blocks=30, max_operations=30))
        assert len(suite) >= 30
        names = [graph.name for graph in suite]
        assert any(name.startswith("tree") for name in names)
        assert any("crc32" in name for name in names)
        assert len(set(names)) == len(names), "graph names must be unique"

    def test_all_blocks_valid(self):
        suite = build_suite(SuiteConfig(num_blocks=25, max_operations=25))
        for graph in suite:
            assert graph.is_dag()
            assert validate_graph(graph, raise_on_error=False).ok

    def test_size_cluster_labels(self):
        suite = build_suite(SuiteConfig(num_blocks=25, max_operations=70))
        labels = {size_cluster(graph) for graph in suite}
        assert "tree" in labels
        assert labels & {"small", "medium", "large"}

    def test_unrolled_kernels_are_larger(self):
        suite = build_suite(SuiteConfig(num_blocks=1, include_trees=False))
        by_name = {graph.name: graph for graph in suite}
        base = by_name["crc32_step"]
        unrolled = by_name["crc32_step_x3"]
        assert len(unrolled.operation_nodes()) > 2 * len(base.operation_nodes())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(num_blocks=0)
        with pytest.raises(ValueError):
            SuiteConfig(min_operations=10, max_operations=5)


class TestWorkloadSuiteContainer:
    def test_save_and_load_round_trip(self, tmp_path):
        suite = WorkloadSuite(
            name="unit",
            graphs=build_suite(SuiteConfig(num_blocks=4, max_operations=15, include_kernels=False)),
            metadata={"purpose": "test"},
        )
        suite.save(tmp_path / "suite")
        loaded = WorkloadSuite.load(tmp_path / "suite")
        assert loaded.name == "unit"
        assert loaded.metadata == {"purpose": "test"}
        assert len(loaded) == len(suite)
        assert loaded.sizes() == suite.sizes()
        for original, reloaded in zip(suite, loaded):
            assert set(original.edges()) == set(reloaded.edges())

    def test_by_name_lookup(self):
        suite = WorkloadSuite(name="x", graphs=[build_kernel("crc32_step")])
        assert suite.by_name("crc32_step").name == "crc32_step"
        with pytest.raises(KeyError):
            suite.by_name("missing")

    def test_by_name_uses_index_after_add(self):
        suite = WorkloadSuite(name="x")
        graphs = [build_kernel("crc32_step"), build_kernel("bitcount")]
        for graph in graphs:
            suite.add(graph)
        for graph in graphs:
            assert suite.by_name(graph.name) is graph

    def test_duplicate_names_rejected(self):
        suite = WorkloadSuite(name="x", graphs=[build_kernel("crc32_step")])
        with pytest.raises(ValueError, match="crc32_step"):
            suite.add(build_kernel("crc32_step"))
        assert len(suite) == 1
        with pytest.raises(ValueError, match="already contains"):
            WorkloadSuite(
                name="y", graphs=[build_kernel("bitcount"), build_kernel("bitcount")]
            )
