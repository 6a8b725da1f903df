"""The exact stdout, stderr and exit code of each command in each format.

Every command takes `--format text|json|csv`.  json prints one record;
`poly`, `formula`, `series` and `enumerate` print csv rows; everything else
prints its text, for `--format csv` too, and `bijection` prints text
whatever `--format` says.  The expected bytes are written out below, so a
change to how any command renders its result shows here.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from patstat import cli

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = [
    ('enumerate --n 3 --avoid 132 --format text', 0,
     '123\n'
     '213\n'
     '231\n'
     '312\n'
     '321\n',
     ''),
    ('enumerate --n 3 --avoid 132 --format json', 0,
     '{"n": 3, "patterns": ["132"], "avoiders": ["123", "213", "231", "312", "321"]}\n',
     ''),
    ('enumerate --n 3 --avoid 132 --format csv', 0,
     'perm\n'
     '123\n'
     '213\n'
     '231\n'
     '312\n'
     '321\n',
     ''),
    ('enumerate --n 3 --avoid 1 --format text', 0,
     '',
     ''),
    ('enumerate --n 3 --avoid 1 --format json', 0,
     '{"n": 3, "patterns": ["1"], "avoiders": []}\n',
     ''),
    ('enumerate --n 3 --avoid 1 --format csv', 0,
     'perm\n',
     ''),
    ('count --n 5 --avoid 132,213 --format text', 0,
     '16\n',
     ''),
    ('count --n 5 --avoid 132,213 --format json', 0,
     '{"n": 5, "patterns": ["132", "213"], "count": 16}\n',
     ''),
    ('count --n 5 --avoid 132,213 --format csv', 0,
     '16\n',
     ''),
    ('poly --stat inv --n 4 --avoid 132 --format text', 0,
     '1 + q + 2*q^2 + 3*q^3 + 3*q^4 + 3*q^5 + q^6\n',
     ''),
    ('poly --stat inv --n 4 --avoid 132 --format json', 0,
     '{"n": 4, "patterns": ["132"], "stat": "inv", "poly": [1, 1, 2, 3, 3, 3, 1]}\n',
     ''),
    ('poly --stat inv --n 4 --avoid 132 --format csv', 0,
     'q,t,c\n'
     '0,0,1\n'
     '1,0,1\n'
     '2,0,2\n'
     '3,0,3\n'
     '4,0,3\n'
     '5,0,3\n'
     '6,0,1\n',
     ''),
    ('poly --stat maj --n 3 --avoid 321 --format text', 0,
     '1 + 2*q + 2*q^2\n',
     ''),
    ('poly --stat maj --n 3 --avoid 321 --format json', 0,
     '{"n": 3, "patterns": ["321"], "stat": "maj", "poly": [1, 2, 2]}\n',
     ''),
    ('poly --stat maj --n 3 --avoid 321 --format csv', 0,
     'q,t,c\n'
     '0,0,1\n'
     '1,0,2\n'
     '2,0,2\n',
     ''),
    ('poly --stat majdes --n 3 --avoid 123 --format text', 0,
     '2*q*t + 2*q^2*t + q^3*t^2\n',
     ''),
    ('poly --stat majdes --n 3 --avoid 123 --format json', 0,
     '{"n": 3, "patterns": ["123"], "stat": "majdes", "poly": [{"q": 1, "t": 1, "c": 2}, '
     '{"q": 2, "t": 1, "c": 2}, {"q": 3, "t": 2, "c": 1}]}\n',
     ''),
    ('poly --stat majdes --n 3 --avoid 123 --format csv', 0,
     'q,t,c\n'
     '1,1,2\n'
     '2,1,2\n'
     '3,2,1\n',
     ''),
    ('poly --stat inv --n 3 --avoid 13x --format text', 2,
     '',
     "patstat: cannot parse permutation '13x'\n"),
    ('poly --stat inv --n 3 --avoid 13x --format json', 2,
     '',
     "patstat: cannot parse permutation '13x'\n"),
    ('poly --stat inv --n 3 --avoid 13x --format csv', 2,
     '',
     "patstat: cannot parse permutation '13x'\n"),
    ('classify --k 3 --size 2 --stat inv --nmax 4 --format text', 0,
     '123,132 | 123,213\n'
     '123,231 | 123,312\n'
     '123,321\n'
     '132,213\n'
     '132,231 | 132,312 | 213,231 | 213,312\n'
     '132,321 | 213,321\n'
     '231,312\n'
     '231,321 | 312,321\n',
     ''),
    ('classify --k 3 --size 2 --stat inv --nmax 4 --format json', 0,
     '[["123,132", "123,213"], ["123,231", "123,312"], ["123,321"], ["132,213"], '
     '["132,231", "132,312", "213,231", "213,312"], ["132,321", "213,321"], ["231,312"], '
     '["231,321", "312,321"]]\n',
     ''),
    ('classify --k 3 --size 2 --stat inv --nmax 4 --format csv', 0,
     '123,132 | 123,213\n'
     '123,231 | 123,312\n'
     '123,321\n'
     '132,213\n'
     '132,231 | 132,312 | 213,231 | 213,312\n'
     '132,321 | 213,321\n'
     '231,312\n'
     '231,321 | 312,321\n',
     ''),
    ('classify --k 1 --size 2 --stat maj --nmax 3 --format text', 0,
     '',
     ''),
    ('classify --k 1 --size 2 --stat maj --nmax 3 --format json', 0,
     '[]\n',
     ''),
    ('classify --k 1 --size 2 --stat maj --nmax 3 --format csv', 0,
     '',
     ''),
    ('classify --k 3 --size 0 --stat maj-des --nmax 3 --format text', 0,
     '\n',
     ''),
    ('classify --k 3 --size 0 --stat maj-des --nmax 3 --format json', 0,
     '[[""]]\n',
     ''),
    ('classify --k 3 --size 0 --stat maj-des --nmax 3 --format csv', 0,
     '\n',
     ''),
    ('series --gf gf-231-321 --order 3 --format text', 0,
     'x^0: 1\n'
     'x^1: 1\n'
     'x^2: 1 + q*t\n'
     'x^3: 1 + 2*q*t + q^2*t\n',
     ''),
    ('series --gf gf-231-321 --order 3 --format json', 0,
     '{"id": "gf-231-321", "order": 3, "coeffs": [[{"q": 0, "t": 0, "c": 1}], [{"q": 0, '
     '"t": 0, "c": 1}], [{"q": 0, "t": 0, "c": 1}, {"q": 1, "t": 1, "c": 1}], [{"q": 0, '
     '"t": 0, "c": 1}, {"q": 1, "t": 1, "c": 2}, {"q": 2, "t": 1, "c": 1}]]}\n',
     ''),
    ('series --gf gf-231-321 --order 3 --format csv', 0,
     'x,q,t,c\n'
     '0,0,0,1\n'
     '1,0,0,1\n'
     '2,0,0,1\n'
     '2,1,1,1\n'
     '3,0,0,1\n'
     '3,1,1,2\n'
     '3,2,1,1\n',
     ''),
    ('formula --id inv-132-213 --n 4 --format text', 0,
     '1 + 2*q^3 + q^4 + 3*q^5 + q^6\n',
     ''),
    ('formula --id inv-132-213 --n 4 --format json', 0,
     '{"id": "inv-132-213", "n": 4, "poly": [1, 0, 0, 2, 1, 3, 1]}\n',
     ''),
    ('formula --id inv-132-213 --n 4 --format csv', 0,
     'q,t,c\n'
     '0,0,1\n'
     '3,0,2\n'
     '4,0,1\n'
     '5,0,3\n'
     '6,0,1\n',
     ''),
    ('formula --id maj-triple-A --n 3 --format text', 0,
     '1 + q*t + q^2*t\n',
     ''),
    ('formula --id maj-triple-A --n 3 --format json', 0,
     '{"id": "maj-triple-A", "n": 3, "poly": [{"q": 0, "t": 0, "c": 1}, {"q": 1, "t": 1, '
     '"c": 1}, {"q": 2, "t": 1, "c": 1}]}\n',
     ''),
    ('formula --id maj-triple-A --n 3 --format csv', 0,
     'q,t,c\n'
     '0,0,1\n'
     '1,1,1\n'
     '2,1,1\n',
     ''),
    ('foata --word 0110 --format text', 0,
     '1010\n',
     ''),
    ('foata --word 0110 --format json', 0,
     '{"word": "0110", "image": "1010"}\n',
     ''),
    ('foata --word 0110 --format csv', 0,
     '1010\n',
     ''),
    ('foata --word 0110 --inverse --format text', 0,
     '1100\n',
     ''),
    ('foata --word 0110 --inverse --format json', 0,
     '{"word": "0110", "image": "1100"}\n',
     ''),
    ('foata --word 0110 --inverse --format csv', 0,
     '1100\n',
     ''),
    ('decompose --word 1010011 --format text', 0,
     'lambda=2,2,1\n'
     'd=2\n'
     'beta=1\n'
     'rho=0,0\n',
     ''),
    ('decompose --word 1010011 --format json', 0,
     '{"lambda": [2, 2, 1], "d": 2, "beta": [1], "rho": [0, 0]}\n',
     ''),
    ('decompose --word 1010011 --format csv', 0,
     'lambda=2,2,1\n'
     'd=2\n'
     'beta=1\n'
     'rho=0,0\n',
     ''),
    ('bijection --name 231-321 --input 213 --format text', 0,
     '101\n',
     ''),
    ('bijection --name 231-321 --input 213 --format json', 0,
     '101\n',
     ''),
    ('bijection --name 231-321 --input 213 --format csv', 0,
     '101\n',
     ''),
    ('bijection --name 132-213-partition --input 2 --inverse --n 3 --format text', 0,
     '231\n',
     ''),
    ('bijection --name 132-213-partition --input 2 --inverse --n 3 --format json', 0,
     '231\n',
     ''),
    ('bijection --name 132-213-partition --input 2 --inverse --n 3 --format csv', 0,
     '231\n',
     ''),
    ('mahonian --left 132,213 --right 132,231 --n 5 --format text', 0,
     'true\n',
     ''),
    ('mahonian --left 132,213 --right 132,231 --n 5 --format json', 0,
     '{"n": 5, "left": "132,213", "right": "132,231", "mahonian": true}\n',
     ''),
    ('mahonian --left 132,213 --right 132,231 --n 5 --format csv', 0,
     'true\n',
     ''),
    ('mahonian --left 123 --right 132 --n 4 --format text', 1,
     'false\n',
     ''),
    ('mahonian --left 123 --right 132 --n 4 --format json', 1,
     '{"n": 4, "left": "123", "right": "132", "mahonian": false}\n',
     ''),
    ('mahonian --left 123 --right 132 --n 4 --format csv', 1,
     'false\n',
     ''),
    ('verify --suite paper --nmax 1 --format text', 0,
     'PASS inv-under-symmetries (16 cases)\n'
     'PASS maj-under-complement (2 cases)\n'
     'PASS containment-under-symmetries (160 cases)\n'
     'PASS symmetry-group-law (128 cases)\n'
     'PASS inflation-laws (454 cases)\n'
     'PASS polynomial-ring-axioms (400 cases)\n'
     'PASS coefficient-reversal-involution (200 cases)\n'
     'PASS series-inverse-roundtrip (60 cases)\n'
     'PASS counts-from-polynomials (128 cases)\n'
     'PASS inv-polynomial-transport (480 cases)\n'
     'PASS maj-polynomial-complement (60 cases)\n'
     'PASS classify-canonical-form (12 cases)\n'
     'PASS closed-forms-vs-enumeration (111 cases)\n'
     'PASS q-catalan-recursions (6 cases)\n'
     'PASS product-form-bridge (6 cases)\n'
     'PASS series-vs-enumeration (12 cases)\n'
     'PASS fibonacci-bridge (6 cases)\n'
     'PASS run-rearrangement-bijection (63 cases)\n'
     'PASS durfee-roundtrip (63 cases)\n'
     'PASS image-characterizations (18 cases)\n'
     'PASS word-generating-functions (12 cases)\n'
     'PASS bijection-suite (14 cases)\n'
     '22/22 checks passed\n',
     ''),
    ('verify --suite paper --nmax 1 --format json', 0,
     '[{"name": "inv-under-symmetries", "passed": true, "cases": 16, "failures": []}, '
     '{"name": "maj-under-complement", "passed": true, "cases": 2, "failures": []}, '
     '{"name": "containment-under-symmetries", "passed": true, "cases": 160, '
     '"failures": []}, {"name": "symmetry-group-law", "passed": true, "cases": 128, '
     '"failures": []}, {"name": "inflation-laws", "passed": true, "cases": 454, '
     '"failures": []}, {"name": "polynomial-ring-axioms", "passed": true, "cases": 400, '
     '"failures": []}, {"name": "coefficient-reversal-involution", "passed": true, '
     '"cases": 200, "failures": []}, {"name": "series-inverse-roundtrip", '
     '"passed": true, "cases": 60, "failures": []}, {"name": "counts-from-polynomials", '
     '"passed": true, "cases": 128, "failures": []}, '
     '{"name": "inv-polynomial-transport", "passed": true, "cases": 480, '
     '"failures": []}, {"name": "maj-polynomial-complement", "passed": true, '
     '"cases": 60, "failures": []}, {"name": "classify-canonical-form", "passed": true, '
     '"cases": 12, "failures": []}, {"name": "closed-forms-vs-enumeration", '
     '"passed": true, "cases": 111, "failures": []}, {"name": "q-catalan-recursions", '
     '"passed": true, "cases": 6, "failures": []}, {"name": "product-form-bridge", '
     '"passed": true, "cases": 6, "failures": []}, {"name": "series-vs-enumeration", '
     '"passed": true, "cases": 12, "failures": []}, {"name": "fibonacci-bridge", '
     '"passed": true, "cases": 6, "failures": []}, '
     '{"name": "run-rearrangement-bijection", "passed": true, "cases": 63, '
     '"failures": []}, {"name": "durfee-roundtrip", "passed": true, "cases": 63, '
     '"failures": []}, {"name": "image-characterizations", "passed": true, "cases": 18, '
     '"failures": []}, {"name": "word-generating-functions", "passed": true, '
     '"cases": 12, "failures": []}, {"name": "bijection-suite", "passed": true, '
     '"cases": 14, "failures": []}]\n',
     ''),
    ('verify --suite paper --nmax 1 --format csv', 0,
     'PASS inv-under-symmetries (16 cases)\n'
     'PASS maj-under-complement (2 cases)\n'
     'PASS containment-under-symmetries (160 cases)\n'
     'PASS symmetry-group-law (128 cases)\n'
     'PASS inflation-laws (454 cases)\n'
     'PASS polynomial-ring-axioms (400 cases)\n'
     'PASS coefficient-reversal-involution (200 cases)\n'
     'PASS series-inverse-roundtrip (60 cases)\n'
     'PASS counts-from-polynomials (128 cases)\n'
     'PASS inv-polynomial-transport (480 cases)\n'
     'PASS maj-polynomial-complement (60 cases)\n'
     'PASS classify-canonical-form (12 cases)\n'
     'PASS closed-forms-vs-enumeration (111 cases)\n'
     'PASS q-catalan-recursions (6 cases)\n'
     'PASS product-form-bridge (6 cases)\n'
     'PASS series-vs-enumeration (12 cases)\n'
     'PASS fibonacci-bridge (6 cases)\n'
     'PASS run-rearrangement-bijection (63 cases)\n'
     'PASS durfee-roundtrip (63 cases)\n'
     'PASS image-characterizations (18 cases)\n'
     'PASS word-generating-functions (12 cases)\n'
     'PASS bijection-suite (14 cases)\n'
     '22/22 checks passed\n',
     ''),
]


@pytest.mark.parametrize("argv, code, out, err", GOLDEN, ids=[case[0] for case in GOLDEN])
def test_command_output_is_byte_identical(argv, code, out, err, capsys):
    try:
        got = cli.main(argv.split())
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)


@pytest.mark.parametrize("argv, code, out, err", GOLDEN, ids=[case[0] for case in GOLDEN])
def test_plain_lines_are_parsed_without_argparse(argv, code, out, err, capsys, monkeypatch):
    # every golden line is plain, so an option the one-pass parse cannot
    # read fails here in place of sending each line back to argparse
    def refuse(*args, **kwargs):
        raise AssertionError(f"argparse parsed {argv!r}")
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    try:
        got = cli.main(argv.split())
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)


def test_the_package_runs_as_a_module_from_a_checkout():
    # `PYTHONPATH=src python -m patstat ...` prints what the command prints
    argv = "verify --suite paper --nmax 1 --format text"
    code, out, err = next(case[1:] for case in GOLDEN if case[0] == argv)
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-m", "patstat", *argv.split()], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
