"""Fixture: SPL001 — simulation calls dropped on the floor.

Not collected by pytest (python_files = test_*.py) and excluded from
ruff; exists purely as speclint input for tests/test_speclint.py.
"""


def rank_program(env, proc):
    def body():
        proc.recv(src=0)           # SPL001: generator never driven
        proc.recv(match=None)      # SPL001: result (a generator) discarded
        env.timeout(3.0)           # SPL001: bare-expression timeout
        yield env.timeout(1.0)

    return body
