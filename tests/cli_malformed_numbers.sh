#!/bin/sh
# Numeric options of the rats CLI reject malformed values with the
# usage exit code (2) instead of running with a numeric prefix, zero or
# a wrapped value.  Usage: cli_malformed_numbers.sh <path to rats>
rats=$1
status=0
expect_exit() {
  want=$1
  shift
  "$rats" "$@" > /dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: rats $* exited $got, want $want"
    status=1
  fi
}
expect_exit 2 fuzz --count 1 --seed 1x --emit
expect_exit 2 fuzz --count 1 --seed abc --emit
expect_exit 2 fuzz --count 1 --seed -1 --emit
expect_exit 2 fuzz --count 1 --seed 18446744073709551616 --emit
expect_exit 0 fuzz --count 1 --seed 18446744073709551615 --emit
sched="sched --generate fft:4 --platform grillon --algo delta"
expect_exit 2 $sched --seed 1x
expect_exit 2 $sched --mindelta x
expect_exit 2 $sched --maxdelta 1.5y
expect_exit 2 $sched --minrho ''
expect_exit 0 $sched --seed 7 --mindelta -0.5 --maxdelta 1e0 --minrho .5
exit $status
