#!/bin/sh
# The ablation binaries reject malformed numbers with the usage exit
# code (2), as rats does: seeds are decimal digits that fit 64 bits,
# counts are >= 0.  Every case here fails in argument parsing, before
# any corpus is built.  Usage: ablation_malformed_numbers.sh <ablation>
ablation=$1
status=0
expect_exit() {
  want=$1
  shift
  "$ablation" "$@" > /dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $ablation $* exited $got, want $want"
    status=1
  fi
}
expect_exit 2 --threads 1 --seed -1
expect_exit 2 --threads 1 --seed 1x
expect_exit 2 --threads 1 --seed 18446744073709551616
expect_exit 2 --threads 1 --samples-kernel -1
expect_exit 2 --threads 1 --samples-random -1
expect_exit 2 --threads 1 --samples-random ''
expect_exit 2 --threads x
expect_exit 0 --help
exit $status
