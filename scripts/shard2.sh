#!/bin/sh
# Runs one command as both workers of a two-process sharded run and
# merges their partial reports:
#
#   scripts/shard2.sh OUT.json CMD [ARGS...]
#
# The workers are CMD ARGS -shard 1/2 and -shard 2/2, started at once
# with one fresh -runid, sequential cells (-parallel 1, so two workers
# do not oversubscribe the host) and their own -jsonfile. ARGS carry
# the store the workers share (-cachedir, or -remote) and -verify.
# The run fails if either worker exits non-zero (a crash, or a figure
# whose hash diverges from the -verify reference) or if the merge fails
# (the workers disagree on an output hash); otherwise the merged run is
# appended to OUT.json. Run it from the repository root, as
# scripts/check.sh and the Makefile smokes do.
set -eu

out=$1
shift
trap 'rm -f "$out.1" "$out.1.lock" "$out.2" "$out.2.lock"' EXIT
rm -f "$out.1" "$out.2"
runid="shard2-$$-$(date +%s)"
"$@" -shard 1/2 -runid "$runid" -parallel 1 -jsonfile "$out.1" >/dev/null &
w1=$!
"$@" -shard 2/2 -runid "$runid" -parallel 1 -jsonfile "$out.2" >/dev/null &
w2=$!
failed=0
wait "$w1" || failed=1
wait "$w2" || failed=1
if [ "$failed" != 0 ]; then
  echo "shard2: a worker of $* failed" >&2
  exit 1
fi
go run ./scripts -merge -o "$out" "$out.1" "$out.2"
