"""Reach recorder, loaded as ``sitecustomize`` (see README, "Reach report")."""

import os

if os.environ.get("REACH_DIR"):
    import atexit
    import sys
    import threading

    ROOT = os.path.realpath(os.path.join(__file__, "../../../src/repro")) + os.sep
    seen: dict[int, object] = {}  # id -> code object; holding it pins the id
    new: list[str] = []
    written = [0]  # keys flushed; racing flushes may repeat a key, never drop one

    def trace(frame, event, arg):  # runs once per new frame; None: no line events
        code = frame.f_code
        if id(code) not in seen:
            seen[id(code)] = code
            path = os.path.realpath(code.co_filename)
            if path.startswith(ROOT):
                new.append(f"{path[len(ROOT) :]}::{code.co_qualname}\n")

    def flush(exit_status=None, _exit=os._exit):  # also stands in for os._exit
        start, end = written[0], len(new)
        written[0] = end
        with open(os.path.join(os.environ["REACH_DIR"], f"{os.getpid()}.txt"), "a") as out:
            out.writelines(new[start:end])
        if exit_status is not None:
            _exit(exit_status)

    def flush_every_second(never=threading.Event()):  # a killed process loses <= 1 s
        while not never.wait(1.0):
            flush()

    os.makedirs(os.environ["REACH_DIR"], exist_ok=True)
    os._exit = flush  # forked pool workers leave through os._exit, skipping atexit
    atexit.register(flush)
    sys.settrace(trace)
    threading.settrace(trace)
    threading.Thread(target=flush_every_second, daemon=True).start()
