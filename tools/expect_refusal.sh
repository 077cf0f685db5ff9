#!/bin/sh
# Usage: expect_refusal.sh FLAG COMMAND [ARG...]
# Runs COMMAND and passes when it exits 2 with FLAG on stderr: the exit
# status every binary gives a flag it refuses.
flag=$1
shift
err=$("$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -ne 2 ]; then
  echo "exit status $status, want 2; stderr: $err"
  exit 1
fi
case $err in
  *"$flag"*) ;;
  *) echo "stderr does not name $flag: $err"; exit 1 ;;
esac
