open Tandem_sim

let same_cpu_latency = Sim_time.microseconds 100
let bus_latency = Sim_time.microseconds 500
let network_latency = Sim_time.milliseconds 10
let cpu_message_cost = Sim_time.microseconds 500
let cpu_db_op_cost = Sim_time.milliseconds 2
let cpu_server_cost = Sim_time.milliseconds 3
let failure_detection = Sim_time.seconds 1
let rpc_timeout = Sim_time.seconds 2
let rpc_retries = 3
let net_retransmit = Sim_time.milliseconds 200
let net_attempts = 5
let boxcar_marginal_cost = Sim_time.microseconds 10

type t = {
  disc_access : Sim_time.span;
  dp_checkpoint_coalescing : bool;
  boxcar_window : Sim_time.span;
  group_commit_window : Sim_time.span;
  disc_cache_blocks : int;
  lock_timeout : Sim_time.span;
  tmp_read_only_votes : bool;
  tmp_presumed_abort : bool;
  tmp_single_node_fast_path : bool;
  tmp_commit_protocol : [ `Two_phase | `Paxos of int ];
  parallel_prepare : bool;
  transaction_time_limit : Sim_time.span;
  restart_limit : int;
  rollforward_parallelism : [ `Sequential | `Chains of int ];
}

let commit_protocol_doc = function
  | `Two_phase -> "2pc"
  | `Paxos acceptors -> Printf.sprintf "paxos:%d" acceptors

let rollforward_parallelism_doc = function
  | `Sequential -> "seq"
  | `Chains workers -> Printf.sprintf "chains:%d" workers

let default =
  {
    disc_access = Sim_time.milliseconds 25;
    dp_checkpoint_coalescing = true;
    boxcar_window = Sim_time.microseconds 100;
    group_commit_window = Sim_time.microseconds 0;
    disc_cache_blocks = 0;
    lock_timeout = Sim_time.seconds 2;
    tmp_read_only_votes = true;
    tmp_presumed_abort = true;
    tmp_single_node_fast_path = true;
    tmp_commit_protocol = `Two_phase;
    parallel_prepare = true;
    transaction_time_limit = Sim_time.seconds 60;
    restart_limit = 3;
    rollforward_parallelism = `Sequential;
  }

let span_doc (us : Sim_time.span) =
  if us = 0 then "0"
  else if us mod 1_000_000 = 0 then Printf.sprintf "%ds" (us / 1_000_000)
  else if us mod 1_000 = 0 then Printf.sprintf "%dms" (us / 1_000)
  else Printf.sprintf "%dus" us

let knob_docs =
  let d = default in
  [
    ("disc_access", span_doc d.disc_access, "one physical disc access");
    ( "dp_checkpoint_coalescing",
      string_of_bool d.dp_checkpoint_coalescing,
      "one DISCPROCESS checkpoint per client request instead of per image" );
    ( "boxcar_window",
      span_doc d.boxcar_window,
      "same-destination network messages within this window share a delivery" );
    ( "group_commit_window",
      span_doc d.group_commit_window,
      "force daemons linger this long so concurrent forces share one write" );
    ( "disc_cache_blocks",
      string_of_int d.disc_cache_blocks,
      "volume controller block cache capacity (0 = no cache)" );
    ( "lock_timeout",
      span_doc d.lock_timeout,
      "a lock request not granted within this interval fails with a lock \
       timeout, which the TCP answers with a transaction restart" );
    ( "tmp_read_only_votes",
      string_of_bool d.tmp_read_only_votes,
      "participants that wrote no audit images vote read-only, release locks \
       at the vote and are pruned from phase two" );
    ( "tmp_presumed_abort",
      string_of_bool d.tmp_presumed_abort,
      "aborts skip the forced monitor record and phase-two acknowledgments; \
       restart resolves in-doubt transids to abort by presumption" );
    ( "tmp_single_node_fast_path",
      string_of_bool d.tmp_single_node_fast_path,
      "transactions that never left the home node commit with one local \
       force and no TMP round" );
    ( "tmp_commit_protocol",
      commit_protocol_doc d.tmp_commit_protocol,
      "commit protocol for distributed transactions: 2pc (verdict lives \
       only at the home node, so voted-yes participants block on its \
       failure) or paxos:N (Paxos Commit over N = 2f+1 acceptors; any \
       acceptor-majority learner can compute and deliver the verdict)" );
    ( "parallel_prepare",
      string_of_bool d.parallel_prepare,
      "send phase-one requests to a node's children concurrently instead \
       of one at a time" );
    ( "transaction_time_limit",
      span_doc d.transaction_time_limit,
      "a transaction unresolved this long is aborted automatically, unless \
       the node has already voted yes" );
    ( "restart_limit",
      string_of_int d.restart_limit,
      "restarts the TCP allows a terminal's transaction before reporting \
       it failed" );
    ( "rollforward_parallelism",
      rollforward_parallelism_doc d.rollforward_parallelism,
      "ROLLFORWARD replay mode: seq (each audit trail one chain in audit \
       order, on one worker) or chains:N (each trail's dependency chains, \
       derived from the audit at recovery, on N fiber workers; dependent \
       images stay ordered)" );
  ]
