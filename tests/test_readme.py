"""The README's Library example runs as documented."""

import pathlib
import re

from lifsim import cost

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The Python block of the README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_latency(capsys):
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    latency, fire_times = capsys.readouterr().out.rstrip("\n").split(" ", 1)
    assert latency == str(cost.latency(namespace["cfg"], namespace["train"]))
    assert fire_times == str(namespace["trace"].fire_times())
