"""Fixture: violations present but silenced by suppression directives."""
# speclint: disable-file=SPL004


def stamped(proc):
    proc.send(1, None, tag="stamp")  # file-wide SPL004 suppression covers this


def fire_and_forget(env):
    env.timeout(1.0)  # speclint: disable=SPL001
