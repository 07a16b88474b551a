"""KC001-KC008: one triggering and one clean fixture per rule."""

import textwrap

from repro.statics import analyze_source, prove_kernels


def findings_for(source, rule_id, name="core.demo"):
    report = analyze_source(
        textwrap.dedent(source), name=name, rules=[rule_id]
    )
    return [f for f in report.findings if f.rule_id == rule_id]


class TestKC001DispatchTableComplete:
    def test_undispatched_engine_is_flagged(self):
        bad = """\
            ENGINES = ("alpha", "beta")

            def scores(instructions, ref_codes, engine="alpha"):
                if engine == "alpha":
                    return _alpha(instructions, ref_codes)
                raise ValueError(engine)
            """
        findings = findings_for(bad, "KC001")
        assert findings and "beta" in findings[0].message

    def test_undeclared_dispatch_arm_is_flagged(self):
        bad = """\
            ENGINES = ("alpha",)

            def scores(instructions, ref_codes, engine="alpha"):
                if engine == "alpha":
                    return _alpha(instructions, ref_codes)
                if engine == "gamma":
                    return _gamma(instructions, ref_codes)
                raise ValueError(engine)
            """
        findings = findings_for(bad, "KC001")
        assert findings and "gamma" in findings[0].message

    def test_complete_dispatch_is_clean(self):
        good = """\
            ENGINES = ("alpha", "beta")

            def scores(instructions, ref_codes, engine="alpha"):
                if engine == "alpha":
                    return _alpha(instructions, ref_codes)
                if engine == "beta":
                    return _beta(instructions, ref_codes)
                raise ValueError(engine)
            """
        assert not findings_for(good, "KC001")

    def test_module_without_dispatcher_is_silent(self):
        quiet = """\
            ENGINES = ("alpha", "beta")

            def helper(x):
                return x
            """
        assert not findings_for(quiet, "KC001")


class TestKC002EngineContractMissing:
    def test_uncontracted_engine_is_flagged(self):
        bad = """\
            ENGINES = ("ghost",)

            def scores(instructions, ref_codes, engine="ghost"):
                if engine == "ghost":
                    return None
            """
        findings = findings_for(bad, "KC002")
        assert findings and "ghost" in findings[0].message

    def test_registered_engines_are_clean(self):
        # "bitscore"/"naive" carry runtime @engine_contract declarations.
        good = """\
            ENGINES = ("bitscore", "naive")

            def scores(instructions, ref_codes, engine="bitscore"):
                if engine == "bitscore":
                    return None
                if engine == "naive":
                    return None
            """
        assert not findings_for(good, "KC002")


class TestKC003EngineSignatureDrift:
    def test_renamed_positional_args_are_flagged(self):
        bad = """\
            from repro.core.contracts import engine_contract

            @engine_contract("kc003-swapped")
            def swapped(ref_codes, instructions):
                return ref_codes
            """
        findings = findings_for(bad, "KC003")
        assert findings and "expected (instructions, ref_codes)" in findings[0].message

    def test_keyword_only_without_default_is_flagged(self):
        bad = """\
            from repro.core.contracts import engine_contract

            @engine_contract("kc003-kwonly")
            def kwonly(instructions, ref_codes, *, block):
                return ref_codes
            """
        findings = findings_for(bad, "KC003")
        assert findings and "has no default" in findings[0].message

    def test_varargs_are_flagged(self):
        bad = """\
            from repro.core.contracts import engine_contract

            @engine_contract("kc003-varargs")
            def grabby(instructions, ref_codes, *extras):
                return ref_codes
            """
        assert findings_for(bad, "KC003")

    def test_canonical_signature_is_clean(self):
        good = """\
            from repro.core.contracts import engine_contract

            @engine_contract("kc003-good")
            def canonical(instructions, ref_codes, *, block=8):
                return ref_codes
            """
        assert not findings_for(good, "KC003")


class TestKC004AccumulatorOverflow:
    def test_narrow_accumulator_overflows(self):
        bad = """\
            import numpy as np

            from repro.core.contracts import engine_contract

            @engine_contract("kc004-narrow", accumulator="int8")
            def narrow(instructions, ref_codes):
                scores = np.zeros(ref_codes.size, dtype=np.int8)
                for i in range(instructions.size):
                    scores += 1
                return scores
            """
        findings = findings_for(bad, "KC004")
        assert findings and "escapes int8" in findings[0].message

    def test_wide_accumulator_is_clean(self):
        good = """\
            import numpy as np

            from repro.core.contracts import engine_contract

            @engine_contract("kc004-wide", accumulator="int32")
            def wide(instructions, ref_codes):
                scores = np.zeros(ref_codes.size, dtype=np.int32)
                for i in range(instructions.size):
                    scores += 1
                return scores
            """
        assert not findings_for(good, "KC004")


class TestKC005DtypeEnvelopeViolation:
    def test_uint64_int64_promotion_is_flagged(self):
        bad = """\
            import numpy as np

            from repro.core.contracts import engine_contract

            @engine_contract("kc005-promote", accumulator="int64")
            def promote(instructions, ref_codes):
                lanes = np.zeros(4, dtype=np.uint64)
                signed = np.zeros(4, dtype=np.int64)
                mixed = lanes + signed
                return np.zeros(ref_codes.size, dtype=np.int64)
            """
        findings = findings_for(bad, "KC005")
        assert findings and "float64" in findings[0].message

    def test_drifting_return_dtype_is_flagged(self):
        bad = """\
            import numpy as np

            from repro.core.contracts import engine_contract

            @engine_contract("kc005-drift", accumulator="int32")
            def drift(instructions, ref_codes):
                return np.zeros(ref_codes.size, dtype=np.float32)
            """
        findings = findings_for(bad, "KC005")
        assert findings and "declares accumulator int32" in findings[0].message

    def test_declared_dtype_throughout_is_clean(self):
        good = """\
            import numpy as np

            from repro.core.contracts import engine_contract

            @engine_contract("kc005-good", accumulator="int32")
            def good(instructions, ref_codes):
                return np.zeros(ref_codes.size, dtype=np.int32)
            """
        assert not findings_for(good, "KC005")


class TestKC006HiddenGlobalState:
    def test_module_mutable_read_is_flagged(self):
        bad = """\
            from repro.core.contracts import engine_contract

            _CACHE = {}

            @engine_contract("kc006-cache")
            def cached(instructions, ref_codes):
                if "k" in _CACHE:
                    return _CACHE["k"]
                return ref_codes
            """
        findings = findings_for(bad, "KC006")
        assert findings and "_CACHE" in findings[0].message

    def test_global_statement_is_flagged(self):
        bad = """\
            from repro.core.contracts import engine_contract

            @engine_contract("kc006-global")
            def stateful(instructions, ref_codes):
                global _TOTAL
                _TOTAL = 1
                return ref_codes
            """
        findings = findings_for(bad, "KC006")
        assert findings and "global" in findings[0].message

    def test_immutable_module_constant_is_clean(self):
        good = """\
            from repro.core.contracts import engine_contract

            _TABLE = (1, 2, 3)

            @engine_contract("kc006-good")
            def tabled(instructions, ref_codes):
                return _TABLE[0]
            """
        assert not findings_for(good, "KC006")


class TestKC007NondeterministicOp:
    def test_random_call_is_flagged(self):
        bad = """\
            import numpy as np

            from repro.core.contracts import engine_contract

            @engine_contract("kc007-noisy")
            def noisy(instructions, ref_codes):
                return np.random.rand(ref_codes.size)
            """
        findings = findings_for(bad, "KC007")
        assert findings and "rand" in findings[0].message

    def test_declared_nondeterministic_is_clean(self):
        good = """\
            import numpy as np

            from repro.core.contracts import engine_contract

            @engine_contract("kc007-jitter", deterministic=False)
            def jitter(instructions, ref_codes):
                return np.random.rand(ref_codes.size)
            """
        assert not findings_for(good, "KC007")

    def test_pure_arithmetic_is_clean(self):
        good = """\
            from repro.core.contracts import engine_contract

            @engine_contract("kc007-pure")
            def pure(instructions, ref_codes):
                return ref_codes + 1
            """
        assert not findings_for(good, "KC007")


class TestKC008LaneBudgetUnproven:
    def test_missing_decode_summary_is_flagged(self):
        bad = """\
            class NakedCounter:
                def add(self, bits):
                    pass

                def decode(self):
                    pass
            """
        findings = findings_for(bad, "KC008")
        assert findings and "lacks a" in findings[0].message

    def test_undersized_decode_dtype_is_flagged(self):
        # popcount(200) provably needs 8 bits; int8 holds only 7 value bits.
        bad = """\
            from repro.core.contracts import kernel_summary

            class TightCounter:
                def add(self, bits):
                    pass

                @kernel_summary(("int8", 0, 200))
                def decode(self):
                    pass
            """
        findings = findings_for(bad, "KC008")
        assert findings and "widen the decode dtype" in findings[0].suggested_fix

    def test_unprovable_bound_is_flagged(self):
        bad = """\
            from repro.core.contracts import kernel_summary

            class HugeCounter:
                def add(self, bits):
                    pass

                @kernel_summary(("int32", 0, 100000))
                def decode(self):
                    pass
            """
        findings = findings_for(bad, "KC008")
        assert findings and "provable range" in findings[0].message

    def test_proven_budget_is_clean(self):
        good = """\
            from repro.core.contracts import kernel_summary

            class GoodCounter:
                def add(self, bits):
                    pass

                @kernel_summary(("int32", 0, 36))
                def decode(self):
                    pass
            """
        assert not findings_for(good, "KC008")

    def test_class_without_counter_shape_is_silent(self):
        quiet = """\
            class Unrelated:
                def decode(self):
                    pass
            """
        assert not findings_for(quiet, "KC008")


class TestProveKernels:
    def test_positive_artifact_proves_every_engine(self):
        payload = prove_kernels()
        assert payload["schema"] == "fabp-kernel-proof/v1"
        assert payload["ok"] is True
        assert payload["max_query_elements"] == 750
        budget = payload["lane_budget"]
        assert budget["fits"] and budget["exact"] and budget["needed_bits"] == 10
        for name in ("bitscore", "bitscore_batch", "vectorized", "naive"):
            assert name in payload["engines"]
            report = payload["dtype_flow"][name]
            assert report["analyzed"] and report["clean"], report

    def test_self_test_refutes_seeded_mutations(self):
        payload = prove_kernels(self_test=True)
        verdict = payload["self_test"]
        assert verdict["ok"] is True
        assert verdict["lane_budget_refutation"]["refuted"]
        assert verdict["injected_overflow"]["refuted"]
        assert any(
            f["rule"] == "KC004"
            for f in verdict["injected_overflow"]["findings"]
        )
