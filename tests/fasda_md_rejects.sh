#!/bin/sh
# Usage: fasda_md_rejects.sh PATH_TO_FASDA_MD
#
# fasda_md must refuse what it does not read rather than run on defaults:
# each case below has to exit 1 with a one-line error naming the offending
# flag or value.
md="$1"
status=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

check() {
  expect="$1"
  shift
  err=$("$md" --engine functional --space 333 --per-cell 2 "$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL [$*]: exit $rc, want 1"
    status=1
    return
  fi
  case "$err" in
    *"$expect"*) ;;
    *) echo "FAIL [$*]: error does not name '$expect': $err"; status=1 ;;
  esac
  if [ "$(printf '%s\n' "$err" | wc -l)" -ne 1 ]; then
    echo "FAIL [$*]: error is not one line: $err"
    status=1
  fi
}

check --step --step 10            # a typo of --steps
check --naive-tick --naive-tick   # a retired flag
check stray stray                 # a positional argument
check --ewald --ewald stray       # a word after a bare switch
check --steps --steps abc
check --dt --dt 2fs
check NaCl --forcefield NaCl

# A two-element (nacl) checkpoint restarted under the default one-element
# (na) force field: the engine refuses the unknown element id.
if "$md" --engine functional --space 333 --per-cell 2 --forcefield nacl \
    --steps 1 --sample 1 --checkpoint "$tmp/nacl.bin" >/dev/null 2>&1; then
  check "element id 1" --restart "$tmp/nacl.bin"
else
  echo "FAIL: could not write the nacl checkpoint"
  status=1
fi
exit $status
