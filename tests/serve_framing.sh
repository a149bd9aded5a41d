#!/bin/sh
# Drives streamcover_serve over stdio through two line-framing edge
# cases; each must answer the ping with id "t".
#   serve_framing.sh SERVE_BINARY unterminated
#       the only request ends at EOF without a newline.
#   serve_framing.sh SERVE_BINARY long_line
#       a 64 MB line (not a request) comes before the ping.
set -eu
serve=$1
case $2 in
  unterminated)
    out=$(printf '{"op":"ping","id":"t"}' | "$serve")
    ;;
  long_line)
    out=$({ head -c 67108864 /dev/zero | tr '\000' x
            printf '\n{"op":"ping","id":"t"}\n'; } | "$serve" | cut -c1-200)
    ;;
  *)
    echo "unknown case $2" >&2
    exit 2
    ;;
esac
printf '%s\n' "$out"
printf '%s\n' "$out" | grep '"id":"t"' | grep -q '"ok":true'
