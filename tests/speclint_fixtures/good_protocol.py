"""Fixture: a protocol body speclint should accept without diagnostics."""

VARS = "vars"


def rank_program(env, proc, program, rng):
    def body():
        block = program.initial_block(0)
        for t in range(program.iterations):
            proc.send(1, block, tag=(VARS, t))
            delay = float(rng.normal(1.0, 0.1))
            yield env.timeout(proc.seconds_for(abs(delay)))
            msg = yield from proc.recv(src=1, tag=(VARS, t))
            block = program.compute(0, {1: msg.payload}, t)
        return block

    return body
