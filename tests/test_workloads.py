"""Tests for the six evaluated workloads and their characterization."""

import warnings

import pytest

from repro.common import LatencyClass, OpType, SimulationError
from repro.workloads import (ALL_WORKLOADS, MIN_SCALED_ELEMENTS, AESWorkload,
                             Heat3DWorkload, Jacobi1DWorkload,
                             LLMTrainingWorkload, LlamaInferenceWorkload,
                             ScaleFloorWarning, XORFilterWorkload,
                             characterization_table, characterize,
                             default_workloads, measure_reuse, operation_mix,
                             workload_by_name)

SMALL_SCALE = 0.05


@pytest.fixture(params=ALL_WORKLOADS, ids=lambda cls: cls.name)
def workload(request):
    return request.param(scale=SMALL_SCALE)


class TestWorkloadConstruction:
    def test_program_builds_and_vectorizes(self, workload):
        program, report = workload.vector_program()
        assert len(program) > 0
        program.validate()
        assert 0.0 < report.vectorizable_fraction <= 1.0

    def test_footprint_positive(self, workload):
        assert workload.footprint_bytes() > 0

    def test_scale_grows_footprint(self):
        small = AESWorkload(scale=0.05).footprint_bytes()
        large = AESWorkload(scale=0.5).footprint_bytes()
        assert large > small

    def test_invalid_scale_rejected(self):
        with pytest.raises(Exception):
            AESWorkload(scale=0.0)

    @pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf")])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(SimulationError, match="finite and positive"):
            AESWorkload(scale=scale)

    def test_describe_contains_category(self, workload):
        description = workload.describe()
        assert description["name"] == workload.name
        assert description["footprint_bytes"] > 0


class TestWorkloadCharacteristics:
    def test_vectorizable_fraction_tracks_paper(self, workload):
        measured = characterize(workload)
        paper = workload.paper.vectorizable_fraction
        assert measured.vectorizable_fraction == pytest.approx(paper,
                                                               abs=0.15)

    def test_operation_mix_sums_to_one(self, workload):
        measured = characterize(workload)
        total = (measured.low_latency_fraction +
                 measured.medium_latency_fraction +
                 measured.high_latency_fraction)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_reuse_is_positive(self, workload):
        assert characterize(workload).average_reuse > 0

    def test_aes_is_bitwise_dominated(self):
        measured = characterize(AESWorkload(scale=SMALL_SCALE))
        assert measured.low_latency_fraction > 0.7
        assert measured.high_latency_fraction == pytest.approx(0.0, abs=0.02)

    def test_xor_filter_is_medium_dominated(self):
        measured = characterize(XORFilterWorkload(scale=SMALL_SCALE))
        assert measured.medium_latency_fraction > 0.8

    def test_stencils_have_high_latency_share(self):
        heat = characterize(Heat3DWorkload(scale=SMALL_SCALE))
        jacobi = characterize(Jacobi1DWorkload(scale=SMALL_SCALE))
        assert 0.2 < heat.high_latency_fraction < 0.6
        assert 0.2 < jacobi.high_latency_fraction < 0.5

    def test_llm_workloads_have_no_bitwise_ops(self):
        for workload_cls in (LlamaInferenceWorkload, LLMTrainingWorkload):
            measured = characterize(workload_cls(scale=SMALL_SCALE))
            assert measured.low_latency_fraction == pytest.approx(0.0,
                                                                  abs=0.02)

    def test_llama_has_higher_mul_share_than_training(self):
        llama = characterize(LlamaInferenceWorkload(scale=SMALL_SCALE))
        training = characterize(LLMTrainingWorkload(scale=SMALL_SCALE))
        assert llama.high_latency_fraction > training.high_latency_fraction

    def test_aes_reuse_exceeds_streaming_workloads(self):
        aes = characterize(AESWorkload(scale=SMALL_SCALE))
        llama = characterize(LlamaInferenceWorkload(scale=SMALL_SCALE))
        assert aes.average_reuse > llama.average_reuse


class TestCharacterizationTable:
    def test_table_has_one_row_per_workload(self):
        rows = characterization_table(default_workloads(scale=SMALL_SCALE))
        assert len(rows) == 6
        names = {row["workload"] for row in rows}
        assert names == {cls.name for cls in ALL_WORKLOADS}

    def test_rows_contain_paper_reference_values(self):
        rows = characterization_table([AESWorkload(scale=SMALL_SCALE)])
        assert rows[0]["paper_vectorizable_%"] == 65.0
        assert rows[0]["paper_avg_reuse"] == 15.2

    def test_measure_reuse_and_mix_directly(self):
        program, _ = Jacobi1DWorkload(scale=SMALL_SCALE).vector_program()
        assert measure_reuse(program) > 1.0
        mix = operation_mix(program)
        assert mix[LatencyClass.MEDIUM] > 0


class TestWorkloadByName:
    def test_known_name_builds_at_scale(self):
        workload = workload_by_name("AES", scale=SMALL_SCALE)
        assert isinstance(workload, AESWorkload)
        assert workload.scale == SMALL_SCALE

    def test_unknown_name_message_lists_known_names(self):
        with pytest.raises(ValueError) as excinfo:
            workload_by_name("nonesuch")
        message = str(excinfo.value)
        assert "unknown workload 'nonesuch'" in message
        assert "jacobi-1d" in message  # the known-name list helps the user

    def test_unknown_name_suppresses_keyerror_context(self):
        # The internal KeyError is registry plumbing; the traceback a user
        # sees must not chain through it ("During handling of the above
        # exception..." noise).  `raise ... from None` both clears the
        # cause and sets __suppress_context__.
        with pytest.raises(ValueError) as excinfo:
            workload_by_name("nonesuch")
        assert excinfo.value.__cause__ is None
        assert excinfo.value.__suppress_context__ is True


class TestScaleFloor:
    def test_floor_saturates_and_warns_once(self):
        workload = AESWorkload(scale=SMALL_SCALE)
        with pytest.warns(ScaleFloorWarning, match="floors 100 elements"):
            assert workload._scaled(100) == MIN_SCALED_ELEMENTS
        # The warning is once per instance, not per call.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert workload._scaled(100) == MIN_SCALED_ELEMENTS

    def test_tiny_scales_alias_to_the_same_count(self):
        # Distinct tiny scales hit the floor and build identical programs
        # (this is the documented aliasing the warning exists to surface).
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScaleFloorWarning)
            a = AESWorkload(scale=0.001)._scaled(1000)
            b = AESWorkload(scale=0.0001)._scaled(1000)
        assert a == b == MIN_SCALED_ELEMENTS

    def test_above_floor_no_warning_and_rounds_to_vector(self):
        workload = AESWorkload(scale=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert workload._scaled(10_000) == 12_288  # next 4096 multiple

    def test_effective_scale_reports_the_realized_scale(self):
        floored = AESWorkload(scale=0.001)
        assert floored.effective_scale(1000) == pytest.approx(
            MIN_SCALED_ELEMENTS / 1000)
        unfloored = AESWorkload(scale=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert unfloored.effective_scale(10_000) == pytest.approx(
                12_288 / 10_000)
            assert (unfloored._scaled(10_000)
                    == round(unfloored.effective_scale(10_000) * 10_000))
