"""Golden CLI output: literal expected text for ``--explore`` and ``--report``.

One base class runs ``sradgen`` in-process and compares stdout byte for
byte; each subclass is one invocation with its expected text written out
in full, so any change to a figure, a label, an ordering or a skip note
shows up as a diff against a literal.
"""

import pytest

from repro.cli import main


class GoldenCliCase:
    """Base: run ``argv`` in a scratch directory and expect ``stdout`` exactly."""

    argv: tuple = ()
    stdout: str = ""

    def prepare(self, directory):
        """Hook for cases that need input files in the working directory."""

    @pytest.fixture(autouse=True)
    def _scratch_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.prepare(tmp_path)

    def test_stdout_is_the_golden_text(self, capsys):
        assert main(list(self.argv)) == 0
        captured = capsys.readouterr()
        assert captured.out == self.stdout
        assert captured.err == ""


class TestExploreFifo4x4(GoldenCliCase):
    argv = ("--workload", "fifo", "--rows", "4", "--cols", "4", "--explore")
    stdout = """\
design space for fifo_4x4:
 * FSM[onehot]            delay   0.40 ns   area       1044 cu   FFs 16
   SFM[pointers]          delay   0.41 ns   area       1850 cu   FFs 32
 * CntAG[decoders]        delay   0.69 ns   area        438 cu   FFs 4
   CntAG[adders]          delay   0.69 ns   area        444 cu   FFs 4
   SRAG[two-hot]          delay   0.71 ns   area        650 cu   FFs 10
   FSM[binary]            delay   0.88 ns   area        458 cu   FFs 4
   FSM[gray]              delay   1.13 ns   area        962 cu   FFs 4
   ArithAG[binary]        delay   1.47 ns   area        467 cu   FFs 4
(* = Pareto-optimal)
"""


class TestExploreMotionEstRead8x8FsmBound(GoldenCliCase):
    argv = (
        "--workload", "motion_est_read", "--rows", "8", "--cols", "8",
        "--explore", "--max-fsm-states", "16",
    )
    stdout = """\
design space for motion_est_read_8x8:
 * SRAG[two-hot]          delay   0.79 ns   area       1553 cu   FFs 22
 * CntAG[decoders]        delay   0.89 ns   area       1089 cu   FFs 8
   CntAG[adders]          delay   1.71 ns   area       1395 cu   FFs 8
   ArithAG[binary]        delay   2.10 ns   area       1456 cu   FFs 12
   SFM[pointers]          not applicable: the SFM is a FIFO memory and only \
supports incremental access; sequence 'motion_est_read_8x8' is not incremental
(* = Pareto-optimal)
"""


class TestExploreFifo8x8OptLevel1(GoldenCliCase):
    argv = (
        "--workload", "fifo", "--rows", "8", "--cols", "8",
        "--explore", "--opt-level", "1",
    )
    stdout = """\
design space for fifo_8x8:
 * FSM[onehot]            delay   0.49 ns   area       4336 cu   FFs 64
   SFM[pointers]          delay   0.55 ns   area       7346 cu   FFs 128
 * CntAG[decoders]        delay   0.75 ns   area        654 cu   FFs 6
 * CntAG[adders]          delay   0.75 ns   area        654 cu   FFs 6
   SRAG[two-hot]          delay   0.87 ns   area       1156 cu   FFs 19
 * ArithAG[binary]        delay   1.04 ns   area        445 cu   FFs 6
   FSM[binary]            delay   1.11 ns   area        999 cu   FFs 6
   FSM[gray]              delay   1.57 ns   area       3356 cu   FFs 6
(* = Pareto-optimal)
"""


class TestReportOnInputFileWithUnsafeName(GoldenCliCase):
    """The input path is not an identifier: the design name is sanitised."""

    argv = (
        "--input", "my data/seq-1.txt", "--rows", "4", "--cols", "4",
        "--report", "--vhdl", "out.vhd",
    )
    stdout = """\
SRAdGen result for 'my data/seq-1.txt' (4x4 array, 16 accesses)

row address sequence mapping:
  I = 0;0;0;0;1;1;1;1;2;2;2;2;3;3;3;3
  D = 4;4;4;4
  R = 0;1;2;3
  U = 0;1;2;3
  O = 1;1;1;1
  Z = 0;1;2;3
  S = (0;1;2;3)
  P = 4
 dC = 4
 pC = 4

column address sequence mapping:
  I = 0;1;2;3;0;1;2;3;0;1;2;3;0;1;2;3
  D = 1;1;1;1;1;1;1;1;1;1;1;1;1;1;1;1
  R = 0;1;2;3;0;1;2;3;0;1;2;3;0;1;2;3
  U = 0;1;2;3
  O = 4;4;4;4
  Z = 0;1;2;3
  S = (0;1;2;3)
  P = 16
 dC = 1
 pC = 16

srag_my_data_seq_1_txt       delay =  0.710 ns   area =      650.0 cell units   FFs = 10
wrote VHDL to out.vhd
"""

    def prepare(self, directory):
        (directory / "my data").mkdir()
        addresses = "\n".join(str(address) for address in range(16))
        (directory / "my data" / "seq-1.txt").write_text(f"# raster\n{addresses}\n")

    def test_hdl_entity_uses_the_sanitised_name(self, tmp_path):
        assert main(list(self.argv)) == 0
        assert "entity srag_my_data_seq_1_txt is" in (tmp_path / "out.vhd").read_text()
