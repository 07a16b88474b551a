"""RC001, RC002, RC004, RC006, RC007: triggering and clean fixtures per rule."""

import textwrap

from repro.statics import analyze_source


def findings_for(source, rule_id, name="host.demo"):
    report = analyze_source(
        textwrap.dedent(source), name=name, rules=[rule_id]
    )
    return [f for f in report.findings if f.rule_id == rule_id]


class TestRC001ShmCreateUnmanaged:
    def test_unmanaged_create_is_flagged(self):
        bad = """\
            from multiprocessing import shared_memory

            def make():
                segment = shared_memory.SharedMemory(create=True, size=16)
                return segment
            """
        assert findings_for(bad, "RC001")

    def test_finally_release_is_clean(self):
        good = """\
            from multiprocessing import shared_memory

            def make():
                segment = shared_memory.SharedMemory(create=True, size=16)
                try:
                    use(segment)
                finally:
                    retire_segment(segment)
            """
        assert not findings_for(good, "RC001")

    def test_atexit_swept_registry_is_clean(self):
        good = """\
            import atexit
            from multiprocessing import shared_memory

            _LIVE = {}

            def _sweep():
                pass

            atexit.register(_sweep)

            def make():
                segment = shared_memory.SharedMemory(create=True, size=16)
                _LIVE[segment.name] = segment
                return segment
            """
        assert not findings_for(good, "RC001")

    def test_module_level_create_is_flagged(self):
        bad = """\
            from multiprocessing import shared_memory

            SEGMENT = shared_memory.SharedMemory(create=True, size=16)
            """
        assert findings_for(bad, "RC001")


class TestRC002ViewOutlivesClose:
    def test_close_with_live_view_is_flagged(self):
        bad = """\
            import numpy as np

            def worker(segment):
                buffer = np.frombuffer(segment.buf, dtype=np.uint8)
                work(buffer)
                segment.close()
            """
        assert findings_for(bad, "RC002")

    def test_view_dropped_before_close_is_clean(self):
        good = """\
            import numpy as np

            def worker(segment):
                buffer = np.frombuffer(segment.buf, dtype=np.uint8)
                work(buffer)
                buffer = None
                segment.close()
            """
        assert not findings_for(good, "RC002")

    def test_del_before_close_is_clean(self):
        good = """\
            import numpy as np

            def worker(segment):
                buffer = np.frombuffer(segment.buf, dtype=np.uint8)
                del buffer
                segment.close()
            """
        assert not findings_for(good, "RC002")


class TestRC004AtomicCheckpointWrites:
    def test_plain_write_in_checkpoint_module_is_flagged(self):
        bad = """\
            import json

            def save(path, payload):
                with open(path, "w") as handle:
                    json.dump(payload, handle)
            """
        assert findings_for(bad, "RC004", name="host.checkpoint")

    def test_temp_then_replace_is_clean(self):
        good = """\
            import json
            import os

            def save(path, payload):
                tmp = str(path) + ".tmp"
                with open(tmp, "w") as handle:
                    json.dump(payload, handle)
                os.replace(tmp, path)
            """
        assert not findings_for(good, "RC004", name="host.checkpoint")

    def test_rule_is_scoped_to_checkpoint_modules(self):
        elsewhere = """\
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """
        assert not findings_for(elsewhere, "RC004", name="host.report")


class TestRC006SwallowedExceptions:
    def test_broad_except_pass_is_flagged(self):
        bad = """\
            def run():
                try:
                    work()
                except Exception:
                    pass
            """
        assert findings_for(bad, "RC006")

    def test_bare_except_pass_is_flagged(self):
        bad = """\
            def run():
                try:
                    work()
                except:
                    pass
            """
        assert findings_for(bad, "RC006")

    def test_narrow_except_pass_is_clean(self):
        good = """\
            def run():
                try:
                    work()
                except (OSError, BufferError):
                    pass
            """
        assert not findings_for(good, "RC006")

    def test_broad_except_with_handling_is_clean(self):
        good = """\
            def run(report):
                try:
                    work()
                except Exception as error:
                    report.record(error)
            """
        assert not findings_for(good, "RC006")

    def test_rule_is_scoped_to_host_modules(self):
        elsewhere = """\
            def run():
                try:
                    work()
                except Exception:
                    pass
            """
        assert not findings_for(elsewhere, "RC006", name="rtl.netlist")


class TestRC007AttachUnreleased:
    def test_dangling_attach_is_flagged(self):
        bad = """\
            from multiprocessing import shared_memory

            def peek(name):
                segment = shared_memory.SharedMemory(name=name)
                return bytes(segment.buf[:4])
            """
        assert findings_for(bad, "RC007")

    def test_attach_with_close_is_clean(self):
        good = """\
            from multiprocessing import shared_memory

            def peek(name):
                segment = shared_memory.SharedMemory(name=name)
                try:
                    return bytes(segment.buf[:4])
                finally:
                    segment.close()
            """
        assert not findings_for(good, "RC007")

    def test_attach_parked_in_registry_is_clean(self):
        good = """\
            from multiprocessing import shared_memory

            _WORKER = {}

            def init(name):
                segment = shared_memory.SharedMemory(name=name)
                _WORKER["segment"] = segment
            """
        assert not findings_for(good, "RC007")
