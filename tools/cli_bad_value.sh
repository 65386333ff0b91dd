#!/usr/bin/env bash
# Misuse check for pqr values: every runtime command must exit 2, with a
# message naming the flag (or the runtime Config field it sets) and the
# value, before doing any work.
#
#   tools/cli_bad_value.sh path/to/pqr
set -u
pqr="$1"
fail=0
# command | flags | text the message must contain
cases=(
  "factor|--nb 0|--nb: '0'"
  "factor|--ib 0|--ib: '0'"
  "factor|--m abc|--m: 'abc'"
  "factor|--boundary fixd|--boundary: 'fixd'"
  "factor|--tree flatt|--tree: 'flatt'"
  "factor|--sched agressive|--sched: 'agressive'"
  "factor|--nodes 2 --reliable --rto-us 0|retransmit_timeout_us must be >= 1 (got 0)"
  "factor|--drop 1.5|fault_plan.drop must be a probability in [0, 1] (got 1.5)"
  "solve|--n 0|--n: '0'"
  "solve|--workers 0|--workers: '0'"
  "solve|--transport sockets|--transport: 'sockets'"
  "chol|--nb 0|--nb: '0'"
  "chol|--nodes 0|--nodes: '0'"
  "chol|--sched agressive|--sched: 'agressive'"
  "chol|--hb-timeout -1|heartbeat_timeout_seconds must be >= 0 (got -1)"
  "lu|--n 0|--n: '0'"
  "lu|--workers -3|--workers: '-3'"
  "lu|--max-respawns 1|max_respawns requires the Socket transport"
  "batch|--batch 0|--batch: '0'"
  "batch|--m 0|--m: '0'"
  "batch|--ib 0|--ib: '0'"
  "batch|--nodes 0|--nodes: '0'"
  "batch|--sched lazzy|--sched: 'lazzy'"
  "simulate|--nb 0|--nb: '0'"
  "simulate|--algo qrr|--algo: 'qrr'"
  # Removed flags are unknown flags now, refused by name like any other.
  "factor|--coalesce-bytes 0|unknown flag(s) for pqr factor: --coalesce-bytes"
  "factor|--flush-us 50|unknown flag(s) for pqr factor: --flush-us"
)
for c in "${cases[@]}"; do
  IFS='|' read -r cmd flags want <<<"$c"
  # shellcheck disable=SC2086  # flags are deliberately word-split
  out=$("$pqr" "$cmd" $flags 2>&1)
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "pqr $cmd $flags: exited $rc, expected 2: $out"
    fail=1
  elif ! grep -qF -- "$want" <<<"$out"; then
    echo "pqr $cmd $flags: message lacks \"$want\": $out"
    fail=1
  fi
done
exit $fail
