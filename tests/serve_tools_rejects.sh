#!/bin/sh
# Usage: serve_tools_rejects.sh FASDA_SERVE FASDA_LOADGEN FASDA_STAT
#
# The job-service tools share fasda_md's front end (util::Cli::run): a flag
# they do not read, a positional argument, a word after a bare switch or a
# malformed number must exit 1 with one line "tool: message" naming it,
# before any socket is opened.
serve="$1"
loadgen="$2"
stat="$3"
status=0

check() {
  bin="$1"
  expect="$2"
  shift 2
  err=$("$bin" "$@" 2>&1 >/dev/null)
  rc=$?
  name=$(basename "$bin")
  if [ "$rc" -ne 1 ]; then
    echo "FAIL [$name $*]: exit $rc, want 1"
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
exit $status
