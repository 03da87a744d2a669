(** Global invariants asserted after a scenario's fault schedule drains.

    The checks read audit trails, lock tables, file contents and
    volume/network state directly (uncharged — checking costs no simulated
    time) and together assert the paper's central claim: after any schedule
    of survivable faults, no committed transaction's effects are lost, no
    aborted transaction's effects are visible, every lock is released, the
    mirrors are converged and the network is whole. Each check outcome is
    counted under [chaos.invariant_checks_passed] /
    [chaos.invariant_checks_failed]. *)

type check = {
  name : string;  (** Stable invariant slug (see docs/FAULT_MODEL.md). *)
  passed : bool;
  detail : string;  (** Human-readable evidence, byte-stable per seed. *)
}

type verdict = { checks : check list; passed : bool }

val verdict_to_string : verdict -> string
(** Byte-stable rendering: one ["PASS|FAIL name: detail"] line per check. *)

val bank :
  Tandem_encompass.Cluster.t ->
  spec:Tandem_encompass.Workload.bank_spec ->
  initial_total:int ->
  ?debit_credit_completed:int ->
  unit ->
  verdict
(** The banking-workload invariants:

    - [funds-conserved] — the sum of account balances equals the initial
      funds plus the net of committed debit-credit deltas (transfers
      conserve; a lost committed update or a visible aborted one both
      break this).
    - [committed-durable] — with [debit_credit_completed] given, the
      HISTORY file holds exactly one record per committed debit-credit:
      every terminal-observed commit survived every fault.
    - [locks-drained] — every DISCPROCESS lock table is empty with no
      waiters.
    - [registry-drained] — no node's transaction registry still carries a
      transid.
    - [mirrors-converged] — every volume is available with both mirrors up,
      both controllers up and no revive still running.
    - [network-healed] — no link remains failed. *)

val mfg :
  Tandem_mfg.Mfg_app.t ->
  verdict
(** The manufacturing-database invariants after a partition heals:
    [replicas-converged] (every plant's global-file replicas identical),
    [suspense-drained] (no deferred update left queued), plus the
    [locks-drained], [registry-drained], [mirrors-converged] and
    [network-healed] checks over the underlying cluster. *)
