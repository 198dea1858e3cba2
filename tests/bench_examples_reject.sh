#!/bin/sh
# Usage: bench_examples_reject.sh FIG16_SCALABILITY QUICKSTART
#
# The bench and example binaries share the tools' front end
# (util::Cli::run): a flag they do not read, a positional argument, a word
# after a bare switch or a malformed number must exit 1 with one line
# "prog: message" naming it, before any simulation runs.
fig16="$1"
quickstart="$2"
status=0

# check BIN EXPECT ARGS...: exit 1 with one line naming EXPECT.
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
    *"$name: "*"$expect"*) ;;
    *) echo "FAIL [$name $*]: error does not name '$expect': $err"; status=1 ;;
  esac
  if [ "$(printf '%s\n' "$err" | wc -l)" -ne 1 ]; then
    echo "FAIL [$name $*]: error is not one line: $err"
    status=1
  fi
}

check "$fig16" --bogus --bogus
check "$fig16" --iters --iters 2x
check "$fig16" --large --large 5
check "$fig16" stray stray
check "$quickstart" --steps --steps abc
check "$quickstart" --iters --iters abc
exit $status
