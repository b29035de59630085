"""Golden bytes of every table format the package writes.

The curve CSV/JSON, ``samples.csv`` and the density CSV all go through one
writer; these tests pin each format byte for byte on fixed inputs.
"""

import numpy as np

from tensorpotts import ModelSpec, cli, phase
from tensorpotts.laws import GridLaw, density_table_csv
from tensorpotts.phase import CriticalCurveSample, curve_to_csv
from tensorpotts.sampling import RescaledSamples, write_samples_csv

CURVE = [CriticalCurveSample(0.1, 2.5, 1 / 3, 0.9),
         CriticalCurveSample(1e-300, 1.0, 0.0, 2 / 3),
         CriticalCurveSample(0.30000000000000004, 12345678.9, 1e-17, 0.5)]

CURVE_CSV = """\
h,beta,s_low,s_high
0.10000000000000001,2.5,0.33333333333333331,0.90000000000000002
1e-300,1,0,0.66666666666666663
0.30000000000000004,12345678.9,1.0000000000000001e-17,0.5
"""

CURVE_JSON = """\
[
  {
    "h": 0.1,
    "beta": 2.5,
    "s_low": 0.3333333333333333,
    "s_high": 0.9
  },
  {
    "h": 1e-300,
    "beta": 1.0,
    "s_low": 0.0,
    "s_high": 0.6666666666666666
  },
  {
    "h": 0.30000000000000004,
    "beta": 12345678.9,
    "s_low": 1e-17,
    "s_high": 0.5
  }
]
"""

SAMPLES_PLAIN_CSV = """\
# p=4 q=3 beta=0.616 h=0.67 N=1000 seed=1
x1,x2,x3
0.5,0.25,0.25
0.33333333333333331,0.33333333333333331,0.33333333333333331
"""

SAMPLES_SPECIAL_CSV = """\
# p=4 q=3 beta=0.30000000000000004 h=0.0 N=7 seed=42
x1,x2,x3,t_n,v_2,v_3
0.5,0.25,0.25,-0.10000000000000001,1.0000000000000001e-05,-3.3333333333333337e-06
0.33333333333333331,0.33333333333333331,0.33333333333333331,-0.20000000000000001,\
1.0000000000000001e-05,-3.3333333333333337e-06
"""

DENSITY_CSV = """\
x,pdf,cdf
-1,0.10000000000000001,0
-0.5,0.20000000000000001,0.14285714285714285
0,0.40000000000000002,0.5
0.5,0.20000000000000001,0.8571428571428571
1,0.10000000000000001,1
"""

RAW = np.array([[0.5, 0.25, 0.25], [1 / 3, 1 / 3, 1 / 3]])


def test_curve_csv_and_json_through_the_cli(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(phase, "critical_curve", lambda p, q, n, **kw: CURVE)
    for fmt, golden in (("csv", CURVE_CSV), ("json", CURVE_JSON)):
        path = tmp_path / f"curve.{fmt}"
        assert cli.main(["curve", "--p", "7", "--q", "5", "--samples", "3",
                         "--out", str(path), "--format", fmt]) == 0
        assert path.read_bytes() == golden.encode()
    capsys.readouterr()


def test_curve_to_csv(tmp_path):
    path = tmp_path / "curve.csv"
    curve_to_csv(CURVE, path)
    assert path.read_bytes() == CURVE_CSV.encode()


def test_samples_csv_header_and_columns(tmp_path):
    plain = RescaledSamples(raw=RAW, w=RAW, t_n=None, v_n=None, scale_exponent=0.5)
    path = tmp_path / "plain.csv"
    write_samples_csv(path, plain, ModelSpec(4, 3, 0.616, 0.67), 1000, 1)
    assert path.read_bytes() == SAMPLES_PLAIN_CSV.encode()

    special = RescaledSamples(raw=RAW, w=RAW, t_n=np.array([-0.1 * (i + 1) for i in range(2)]),
                              v_n=np.tile([0.0, 1e-5, -1e-5 / 3], (2, 1)), scale_exponent=0.25)
    path = tmp_path / "special.csv"
    write_samples_csv(path, special, ModelSpec(4, 3, 0.1 + 0.2, 0.0), 7, 42)
    assert path.read_bytes() == SAMPLES_SPECIAL_CSV.encode()


def test_density_csv(tmp_path):
    # a grid law on five nodes whose tables are set by hand, so the bytes do
    # not depend on the quadrature
    law = GridLaw("T", lambda x: -x * x, 1.0, n_points=5)
    law.pdf_values = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    law.cdf_values = np.array([0.0, 1 / 7, 0.5, 6 / 7, 1.0])
    path = tmp_path / "density.csv"
    density_table_csv(law, path)
    assert path.read_bytes() == DENSITY_CSV.encode()
