import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# pyproject's `pythonpath` serves this process only; the interpreters some
# tests start import chaoskit from src/ through the environment.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]))
