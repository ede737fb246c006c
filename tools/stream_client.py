#!/usr/bin/env python3
"""Smoke-test client for the StreamRule session server (examples/stream_server).

Speaks the length-prefixed wire protocol from src/server/wire.h at
protocol v=1: opens one or more sessions running the paper's traffic
program (one TCP connection per session, so N sessions exercise the
server's shared reasoner pool and single event-loop transport), pushes
triples crafted to fire the traffic_jam and car_fire/give_notification
rules, flushes, and asserts that every session saw nonzero answers.

Error replies carry machine-readable codes (`error <verb> <session>
code=<slug> <message>`); the client surfaces the slug on failure.

Usage:
  stream_client.py --port N [--sessions 8] [--windows 3]
                   [--window-size 60] [--protocol-version 1]
                   [--open-option KEY=VALUE ...] [--expect-error CODE] [-v]

--open-option appends an extra option to every open. With --expect-error
CODE the client expects the server to refuse the open with code=CODE and
exits 0 when it does (e.g. an over-cap `window=` must come back as
code=invalid_argument, not crash the server, and so must `async=0`).
With --protocol-version != 1 the expected refusal defaults to
code=unsupported_version (negative test for version negotiation).

Exits 0 on success, 1 otherwise.
"""

import argparse
import socket
import struct
import sys
import threading

PROTOCOL_VERSION = 1

# The paper's traffic program (P variant, listing 1) plus #show — kept in
# sync with src/streamrule/traffic_workload.cc by the rule names the
# assertions below rely on (traffic_jam, car_fire, give_notification).
TRAFFIC_PROGRAM = """\
very_slow_speed(X) :- average_speed(X, S), S < 20.
many_cars(X) :- car_number(X, N), N > 60.
traffic_jam(X) :- very_slow_speed(X), many_cars(X), traffic_light(X).
car_fire(Y) :- car_in_smoke(Y, N), N > 70, car_speed(Y, 0).
car_fire(Y) :- car_in_smoke(Y, N), N > 85.
give_notification(X) :- traffic_jam(X), car_location(Y, X).
#input average_speed/2, car_number/2, traffic_light/1, car_in_smoke/2.
#input car_speed/2, car_location/2.
#show traffic_jam/1, car_fire/1, give_notification/1.
"""


class ServerError(Exception):
    """An `error` reply; `.code` carries the machine-readable slug."""

    def __init__(self, frame: str):
        self.frame = frame
        self.code = "unknown"
        for field in frame.split("\n", 1)[0].split():
            if field.startswith("code="):
                self.code = field.split("=", 1)[1]
        super().__init__(frame)


def send_frame(sock, payload: str):
    data = payload.encode()
    sock.sendall(struct.pack(">I", len(data)) + data)


class FrameReader:
    def __init__(self, sock):
        self.sock = sock
        self.buffer = b""

    def next_frame(self) -> str:
        while True:
            if len(self.buffer) >= 4:
                (length,) = struct.unpack(">I", self.buffer[:4])
                if len(self.buffer) >= 4 + length:
                    payload = self.buffer[4:4 + length]
                    self.buffer = self.buffer[4 + length:]
                    return payload.decode()
            chunk = self.sock.recv(65536)
            if not chunk:
                raise SystemExit("server closed the connection")
            self.buffer += chunk


def window_triples(window_size: int, seq: int):
    """One window of triples guaranteed to fire the rules: a jammed,
    smoky junction plus filler traffic_light facts to pad the window."""
    lines = [
        # traffic_jam(j<seq>): slow average speed, many cars, a light.
        f"average_speed j{seq} 10",
        f"car_number j{seq} 80",
        f"traffic_light j{seq}",
        # give_notification(j<seq>): a car located at the jammed junction.
        f"car_location c{seq} j{seq}",
        # car_fire(c<seq>): heavy smoke while standing still.
        f"car_in_smoke c{seq} 90",
        f"car_speed c{seq} 0",
    ]
    filler = 0
    while len(lines) < window_size:
        lines.append(f"traffic_light pad{seq}_{filler}")
        filler += 1
    return lines[:window_size]


class SessionRun:
    """One session over its own TCP connection: open (negotiating the
    protocol version), push windows, flush, stats, close."""

    def __init__(self, name: str, args):
        self.name = name
        self.args = args
        self.result_events = 0
        self.answers = 0
        self.stats = {}
        self.negotiated_version = None

    def await_reply(self, reader, expect_verb):
        """Reads frames until the pending request's reply; counts the
        subscription events that interleave before it."""
        while True:
            frame = reader.next_frame()
            if self.args.verbose:
                print(f"[{self.name}] {frame}")
                print("--")
            head = frame.split("\n", 1)[0].split()
            if head[0] == "event":
                if head[2] == "result":
                    self.result_events += 1
                    for field in head[3:]:
                        if field.startswith("answers="):
                            self.answers += int(field.split("=", 1)[1])
                continue
            if head[0] == "error":
                raise ServerError(frame)
            assert head[0] == "ok" and head[1] == expect_verb, frame
            return frame

    def run(self):
        sock = socket.create_connection(
            (self.args.host, self.args.port), timeout=60)
        try:
            reader = FrameReader(sock)
            send_frame(sock, "ping")
            self.await_reply(reader, "ping")

            # No async=: every session is a lane on the shared pool.
            open_line = (f"open {self.name} window={self.args.window_size} "
                         f"inflight=2 v={self.args.protocol_version}")
            for option in self.args.open_option:
                open_line += f" {option}"
            send_frame(sock, open_line + "\n" + TRAFFIC_PROGRAM)
            open_reply = self.await_reply(reader, "open")
            # `ok open <session> v=N`: the version the server speaks.
            for field in open_reply.split():
                if field.startswith("v="):
                    self.negotiated_version = int(field.split("=", 1)[1])

            for seq in range(self.args.windows):
                lines = window_triples(self.args.window_size, seq)
                send_frame(sock, f"push {self.name}\n" + "\n".join(lines))
                self.await_reply(reader, "push")

            send_frame(sock, f"flush {self.name}")
            self.await_reply(reader, "flush")

            send_frame(sock, f"stats {self.name}")
            stats_frame = self.await_reply(reader, "stats")
            self.stats = dict(
                line.split("=", 1)
                for line in stats_frame.split("\n")[1:] if "=" in line)

            send_frame(sock, f"close {self.name}")
            self.await_reply(reader, "close")
        finally:
            sock.close()

    def check(self):
        """Returns a list of failure messages (empty on success)."""
        failures = []
        if self.negotiated_version != PROTOCOL_VERSION:
            failures.append(
                f"{self.name}: server spoke v={self.negotiated_version}, "
                f"expected v={PROTOCOL_VERSION}")
        if self.result_events < self.args.windows:
            failures.append(
                f"{self.name}: expected >= {self.args.windows} result "
                f"events, saw {self.result_events}")
        if self.answers <= 0:
            failures.append(
                f"{self.name}: no answers came back (expected "
                f"traffic_jam/car_fire events every window)")
        if int(self.stats.get("delivered_answers", "0")) <= 0:
            failures.append(
                f"{self.name}: server-side delivered_answers is zero")
        # A default open is a pooled lane, so its windows ran as lane
        # tasks, and after the flush barrier every one of them (window and
        # partition tasks alike) has finished.
        submitted = self.stats.get("lane_tasks_submitted")
        completed = self.stats.get("lane_tasks_completed")
        if submitted is None or completed is None:
            failures.append(f"{self.name}: stats reply lacks lane gauges")
        elif int(submitted) <= 0:
            failures.append(
                f"{self.name}: lane_tasks_submitted=0 — the default open "
                f"did not run on the shared pool")
        elif submitted != completed:
            failures.append(
                f"{self.name}: lane_tasks_completed={completed} != "
                f"lane_tasks_submitted={submitted} after flush")
        return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--sessions", type=int, default=1,
                        help="concurrent sessions, one connection each")
    parser.add_argument("--windows", type=int, default=3)
    parser.add_argument("--window-size", type=int, default=60)
    parser.add_argument("--protocol-version", type=int,
                        default=PROTOCOL_VERSION)
    parser.add_argument("--open-option", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="extra option appended to every open")
    parser.add_argument("--expect-error", metavar="CODE",
                        help="expect the open to be refused with code=CODE")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args()

    expected_error = args.expect_error
    if expected_error is None and args.protocol_version != PROTOCOL_VERSION:
        expected_error = "unsupported_version"
    if expected_error is not None:
        # Negative test: the open must be refused cleanly with the
        # machine-readable slug, not crash the connection or the server.
        run = SessionRun("smoke", args)
        try:
            run.run()
        except ServerError as error:
            if error.code == expected_error:
                print(f"stream_client: open rejected cleanly "
                      f"(code={error.code})")
                return 0
            print(f"FAIL: expected code={expected_error}, got: "
                  f"{error.frame}")
            return 1
        print(f"FAIL: server accepted an open it should refuse with "
              f"code={expected_error}")
        return 1

    runs = [SessionRun(f"smoke{i}" if args.sessions > 1 else "smoke", args)
            for i in range(args.sessions)]
    errors = []

    def drive(run):
        try:
            run.run()
        except ServerError as error:
            errors.append(f"{run.name}: server error code={error.code}: "
                          f"{error.frame}")
        except (SystemExit, OSError, AssertionError) as error:
            errors.append(f"{run.name}: {error}")

    if args.sessions == 1:
        drive(runs[0])
    else:
        threads = [threading.Thread(target=drive, args=(run,))
                   for run in runs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    failures = list(errors)
    for run in runs:
        if not any(message.startswith(run.name + ":") for message in errors):
            failures.extend(run.check())

    total_results = sum(run.result_events for run in runs)
    total_answers = sum(run.answers for run in runs)
    print(f"stream_client: {len(runs)} session(s), {total_results} result "
          f"events, {total_answers} answers, v={PROTOCOL_VERSION}")
    if failures:
        for message in failures:
            print(f"FAIL: {message}")
        return 1
    print("stream_client: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
