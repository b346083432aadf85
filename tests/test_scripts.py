"""The scripts under `scripts/` still run, and print what they printed.

They call the library directly, so a deleted or renamed name would break
them without failing any other test.  Each digest pins the script's
deterministic stdout.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

A1_REPORTS_DIGEST = "d2b9306e8a8bf3446437d54269fad2c9e4c6d9d8a38e643845f6afd0ffc66bb5"
# The cold reference check set of the ROADMAP: a1(3, 12, 5), 5833 basis elements.
A1_COLD_REFERENCE_DIGEST = "c5bcce4cb65e8f63beccaa7aba39f3a725a11485a66d6fb4deec2f63d7948d8a"
SURVEY_STDOUT_DIGEST = "2bc1ace957add1ad701683dfa2086b6fe481f44f32cf2b71880eaa2114360fdb"


def run_script(name, *args):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_a1_model_report_reports_are_pinned():
    stdout = run_script("a1_model_report.py", "--p", "2", "--wmax", "3", "--N", "3")
    assert f"reports sha256: {A1_REPORTS_DIGEST}" in stdout.splitlines()


def test_a1_model_report_cold_reference_is_pinned():
    stdout = run_script("a1_model_report.py", "--p", "3", "--wmax", "12", "--N", "5")
    assert f"reports sha256: {A1_COLD_REFERENCE_DIGEST}" in stdout.splitlines()


def test_descent_chain_survey_output_is_pinned():
    stdout = run_script("descent_chain_survey.py", "--samples", "12")
    assert hashlib.sha256(stdout.encode()).hexdigest() == SURVEY_STDOUT_DIGEST
