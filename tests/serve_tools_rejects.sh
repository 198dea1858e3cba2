#!/bin/sh
# Usage: serve_tools_rejects.sh FASDA_SERVE FASDA_LOADGEN FASDA_STAT
#
# The job-service tools share fasda_md's front end (util::Cli::run): a flag
# they do not read, a positional argument, a word after a bare switch, a
# malformed number or any other usage error (a missing or out-of-range
# --port, a bad enum value) must exit 1 with one line "tool: message"
# naming it, before any socket is opened. Runtime failures exit 2.
serve="$1"
loadgen="$2"
stat="$3"
status=0

# check BIN EXPECT ARGS...: usage error, exit 1.
check() {
  check_rc 1 "$@"
}

# check_rc RC BIN EXPECT ARGS...: exit RC with one line naming EXPECT.
check_rc() {
  want="$1"
  bin="$2"
  expect="$3"
  shift 3
  err=$("$bin" "$@" 2>&1 >/dev/null)
  rc=$?
  name=$(basename "$bin")
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL [$name $*]: exit $rc, want $want"
    status=1
    return
  fi
  case "$err" in
    "$name: "*"$expect"*) ;;
    *) echo "FAIL [$name $*]: error does not name '$expect': $err"; status=1 ;;
  esac
  if [ "$(printf '%s\n' "$err" | wc -l)" -ne 1 ]; then
    echo "FAIL [$name $*]: error is not one line: $err"
    status=1
  fi
}

check "$serve" --port --port abc
check "$serve" --queue-workers --queue-workers 2x
check "$serve" --workers --workers 2     # a fasda_md flag, not a daemon one
check "$serve" stray stray
check "$loadgen" --jobs --port 1 --jobs abc
check "$loadgen" --client --port 1 --client 4   # a typo of --clients
check "$loadgen" --mix --port 1 --mix stray
check "$stat" --port --port abc
check "$stat" --pign --port 1 --pign     # a typo of --ping

# Ports: 0-65535 for the daemon (0 = ephemeral), 1-65535 for the clients,
# and a client needs one.
check "$serve" "--port 70000 is out of range (0-65535)" --port 70000
check "$serve" "--port -1 is out of range" --port=-1
check "$loadgen" "--port is required (1-65535)" --jobs 1
check "$loadgen" "--port 0 is out of range (1-65535)" --port 0
check "$loadgen" "--port 65536 is out of range" --port 65536
check "$stat" "--port is required (1-65535)" --ping
check "$stat" "--port 0 is out of range (1-65535)" --port 0
check "$stat" "--port 99999 is out of range" --port 99999

# Other usage errors share exit 1.
check "$serve" --journal-fsync --journal-fsync sometimes
check "$serve" "log level" --log-level loud
check "$loadgen" --kill-every --port 1 --kill-every 2
check "$stat" --format --port 1 --format xml

# Runtime failures exit 2: nothing listens on port 1, an unwritable log.
check_rc 2 "$stat" "connect" --port 1 --retries 1
check_rc 2 "$serve" --log-json --log-json /nonexistent-dir/serve.jsonl
exit $status
