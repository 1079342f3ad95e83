import re

from cantelli import Conclusion

from conftest import REPO


def test_library_example_runs_as_its_comments_say():
    readme = (REPO / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    names = {}
    exec(example, names)
    result, est = names["result"], names["est"]
    assert result.conclusion is Conclusion.IO_PROB_ZERO
    assert result.certified
    lo, hi = est.samples[-1].interval
    assert lo < 1 / 32 < hi
    assert est.samples[-1].window_tail_m == 1 and est.samples[-1].truncation == 16
    assert not est.stalled
