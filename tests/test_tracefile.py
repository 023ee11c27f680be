"""Tests for trace persistence (binary + text formats)."""

import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.params import SystemConfig
from repro.osmodel import Kernel
from repro.sim import lay_out
from repro.workloads import tracefile
from repro.workloads.trace import TraceRecord

records_strategy = st.lists(
    st.builds(TraceRecord,
              asid=st.integers(0, 0xFFFF),
              core=st.integers(0, 255),
              va=st.integers(0, (1 << 48) - 1),
              is_write=st.booleans(),
              gap=st.integers(0, 1000)),
    max_size=200)


def sample_records(n=10):
    return [TraceRecord(asid=1 + i % 3, core=i % 2, va=0x1000 + 8 * i,
                        is_write=i % 2 == 0, gap=2) for i in range(n)]


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.trc"
        original = sample_records()
        assert tracefile.save_binary(path, original) == len(original)
        loaded = list(tracefile.load_binary(path))
        assert loaded == original

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.trc"
        path.write_bytes(b"NOTATRACE!!!")
        with pytest.raises(tracefile.TraceFormatError):
            list(tracefile.load_binary(path))

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "t.trc"
        tracefile.save_binary(path, sample_records(3))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(tracefile.TraceFormatError):
            list(tracefile.load_binary(path))

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "t.trc"
        assert tracefile.save_binary(path, []) == 0
        assert list(tracefile.load_binary(path)) == []

    @settings(max_examples=25)
    @given(records_strategy)
    def test_roundtrip_property(self, records):
        import os
        import tempfile

        fd, path = tempfile.mkstemp(suffix=".trc")
        os.close(fd)
        try:
            tracefile.save_binary(path, records)
            assert list(tracefile.load_binary(path)) == records
        finally:
            os.unlink(path)


class TestTextFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        original = sample_records()
        tracefile.save_text(path, original)
        assert list(tracefile.load_text(path)) == original

    def test_header_required(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,0,0x1000,r,2\n")
        with pytest.raises(tracefile.TraceFormatError):
            list(tracefile.load_text(path))

    def test_malformed_line_located(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# repro trace v1: asid,core,va,rw,gap\n"
                        "1,0,0x1000,r,2\n"
                        "garbage line\n")
        with pytest.raises(tracefile.TraceFormatError, match=":3"):
            list(tracefile.load_text(path))

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# repro trace v1: asid,core,va,rw,gap\n"
                        "\n# comment\n1,0,0x1000,w,3\n")
        loaded = list(tracefile.load_text(path))
        assert len(loaded) == 1
        assert loaded[0].is_write and loaded[0].gap == 3


class TestDispatch:
    def test_extension_picks_binary(self, tmp_path):
        path = tmp_path / "t.trc"
        tracefile.save(path, sample_records(3))
        assert path.read_bytes().startswith(tracefile.MAGIC)

    def test_sniffing_load(self, tmp_path):
        binary = tmp_path / "a.trc"
        text = tmp_path / "b.csv"
        records = sample_records(4)
        tracefile.save(binary, records)
        tracefile.save(text, records)
        assert list(tracefile.load(binary)) == records
        assert list(tracefile.load(text)) == records


class TestWorkloadIntegration:
    def test_recorded_workload_replays_identically(self, tmp_path):
        """Save a generated trace, replay it through a simulation."""
        from repro.core import IdealMmu
        from repro.sim import Simulator

        kernel = Kernel(SystemConfig())
        workload = lay_out("stream", kernel)
        path = tmp_path / "stream.trc"
        tracefile.save(path, workload.trace(500))

        mmu = IdealMmu(kernel, kernel.config)
        pas = [mmu.access(r.core, r.asid, r.va, r.is_write).translated_pa
               for r in tracefile.load(path)]
        assert len(pas) == 500
        for record, pa in zip(tracefile.load(path), pas):
            assert kernel.translate(record.asid, record.va).pa == pa


# The binary record's domain, which both formats hold exactly.
domain_records = st.lists(
    st.builds(TraceRecord,
              asid=st.integers(0, (1 << 16) - 1),
              core=st.integers(0, (1 << 8) - 1),
              va=st.integers(0, (1 << 64) - 1),
              is_write=st.booleans(),
              gap=st.integers(0, (1 << 32) - 1)),
    max_size=50)

OUT_OF_DOMAIN = [("asid", -1), ("asid", 1 << 16), ("core", -1), ("core", 1 << 8),
                 ("va", -16), ("va", 1 << 64), ("gap", -5), ("gap", 1 << 32),
                 ("asid", 1.5)]


def record_with(field, value):
    fields = dict(asid=1, core=0, va=0x1000, is_write=False, gap=2)
    fields[field] = value
    return TraceRecord(**fields)


def assert_round_trips(records):
    """``records`` survive a save/load round trip through both formats."""
    with tempfile.TemporaryDirectory() as directory:
        for name in ("t.trc", "t.csv"):
            path = f"{directory}/{name}"
            assert tracefile.save(path, records) == len(records)
            assert list(tracefile.load(path)) == records


class TestDomain:
    def test_text_rejects_negative_fields(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# repro trace v1: asid,core,va,rw,gap\n"
                        "-1,0,-0x10,r,-5\n")
        with pytest.raises(tracefile.TraceFormatError, match="line 2"):
            list(tracefile.load_text(path))

    @pytest.mark.parametrize("field,value", OUT_OF_DOMAIN[:-1])
    def test_text_rejects_out_of_domain(self, tmp_path, field, value):
        path = tmp_path / "t.csv"
        r = record_with(field, value)
        path.write_text("# repro trace v1: asid,core,va,rw,gap\n"
                        f"{r.asid},{r.core},{r.va:#x},r,{r.gap}\n")
        with pytest.raises(tracefile.TraceFormatError, match=field):
            list(tracefile.load_text(path))

    @pytest.mark.parametrize("suffix", [".trc", ".csv"])
    @pytest.mark.parametrize("field,value", OUT_OF_DOMAIN)
    def test_failed_save_leaves_no_file(self, tmp_path, suffix, field, value):
        path = tmp_path / f"t{suffix}"
        records = sample_records(3) + [record_with(field, value)]
        with pytest.raises(tracefile.TraceFormatError, match=field):
            tracefile.save(path, records)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("suffix", [".trc", ".csv"])
    def test_failed_save_keeps_previous_file(self, tmp_path, suffix):
        path = tmp_path / f"t{suffix}"
        tracefile.save(path, sample_records(4))
        before = path.read_bytes()
        with pytest.raises(tracefile.TraceFormatError):
            tracefile.save(path, [record_with("asid", 70000)])
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_binary_rejects_unknown_flags(self, tmp_path):
        path = tmp_path / "t.trc"
        path.write_bytes(tracefile.MAGIC
                         + tracefile._RECORD.pack(1, 0, 0x2, 2, 0x1000))
        with pytest.raises(tracefile.TraceFormatError, match="flags"):
            list(tracefile.load_binary(path))

    def test_text_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"# repro trace v1: asid,core,va,rw,gap\n\xff\xfe\n")
        with pytest.raises(tracefile.TraceFormatError):
            list(tracefile.load_text(path))

    @settings(max_examples=50, deadline=None)
    @given(domain_records)
    def test_domain_round_trips(self, records):
        assert_round_trips(records)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(alphabet="0123456789abcdefx-+_, rw#\t", max_size=30),
                    max_size=8))
    def test_garbage_lines_fail_loudly_or_round_trip(self, lines):
        with tempfile.TemporaryDirectory() as directory:
            path = f"{directory}/t.csv"
            with open(path, "w") as handle:
                handle.write("# repro trace v1: asid,core,va,rw,gap\n")
                handle.write("\n".join(lines))
            try:
                records = list(tracefile.load_text(path))
            except tracefile.TraceFormatError:
                return
        assert_round_trips(records)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=80), st.booleans())
    def test_garbage_bytes_fail_loudly_or_round_trip(self, data, with_magic):
        with tempfile.TemporaryDirectory() as directory:
            path = f"{directory}/t.trc"
            with open(path, "wb") as handle:
                handle.write((tracefile.MAGIC if with_magic else b"") + data)
            try:
                records = list(tracefile.load(path))
            except tracefile.TraceFormatError:
                return
        assert_round_trips(records)
