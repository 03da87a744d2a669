open Tandem_sim
open Tandem_os
open Tandem_audit

type Message.payload +=
  | Client_end of Transid.t
  | Client_abort of { transid : Transid.t; reason : string }
  | Remote_begin of Transid.t
  | Prepare of Transid.t
  | Phase2_commit of Transid.t
  | Phase2_abort of Transid.t
  | Query_disposition of Transid.t
  | Query_status of Transid.t
  | Ack
  | Committed_reply
  | Aborted_reply of string
  | Prepared_reply
  | Readonly_reply
  | Refused_reply of string
  | Registered_reply
  | Known_reply
  | Disposition_reply of Monitor_trail.disposition option
  | Status_reply of {
      disposition : Monitor_trail.disposition option;
      live : bool;
    }

(* The RPC timeout on a phase-one request and on each safe-delivery send,
   and the pause between safe-delivery passes over the queue. No caller
   ever needed other values. *)
let prepare_timeout = Sim_time.seconds 5

let safe_retry_interval = Sim_time.milliseconds 500

type t = {
  net : Net.t;
  node_state : Tmf_state.node_state;
  mutable safe_queue : (Ids.node_id * Message.payload) Queue.t;
      (* FIFO; [retry_loop] swaps in a rebuilt queue after each pass *)
  mutable retry_running : bool;
  mutable primary : Process.t option;
  (* Counter handles resolve on first use, so a metric enters the registry
     when it is first counted. Protocol-optimization counters live under
     "tmp." — they count what the coordinator's optimizations *saved*, not
     transaction dispositions. *)
  tmf_safe_deliveries : Metrics.counter Lazy.t;
  tmf_aborts : Metrics.counter Lazy.t;
  tmf_commits : Metrics.counter Lazy.t;
  tmf_prepares_sent : Metrics.counter Lazy.t;
  tmf_auto_aborts : Metrics.counter Lazy.t;
  tmf_unilateral_aborts : Metrics.counter Lazy.t;
  tmf_remote_begins : Metrics.counter Lazy.t;
  tmf_commits_by_node : Metrics.counter Lazy.t;
  tmp_presumed_aborts : Metrics.counter Lazy.t;
  tmp_phase2_pruned : Metrics.counter Lazy.t;
  tmp_fast_path_commits : Metrics.counter Lazy.t;
  tmp_paxos_commits : Metrics.counter Lazy.t;
  tmp_read_only_votes : Metrics.counter Lazy.t;
}

let hw t = Net.config t.net

let own_node t = Node.id t.node_state.Tmf_state.node

(* Commit-protocol dispatch: [None] runs the classic 2PC spine, [Some
   acceptors] routes votes and the commit decision through the Paxos Commit
   acceptor set. Resolved per call so a test can flip the knob between
   transactions. *)
let paxos_acceptors t =
  match (hw t).Hw_config.tmp_commit_protocol with
  | `Two_phase -> None
  | `Paxos count -> Some (Paxos_commit.acceptor_nodes t.net count)

let spans t = Net.spans t.net

(* Time a voted-yes participant spends holding locks for someone else's
   verdict — the blocking-window metric the commit protocols compete on.
   Bounds in microseconds: the fast buckets resolve a healthy phase two, the
   slow ones a home-node outage. *)
let indoubt_bounds =
  [|
    1_000.;
    5_000.;
    25_000.;
    100_000.;
    500_000.;
    2_000_000.;
    10_000_000.;
    60_000_000.;
  |]

let observe_indoubt t info =
  if
    info.Tmf_state.voted_yes
    && Transid.home info.Tmf_state.transid <> own_node t
  then
    match info.Tmf_state.voted_at with
    | None -> ()
    | Some voted_at ->
        Metrics.observe_histogram
          (Metrics.histogram ~bounds:indoubt_bounds (Net.metrics t.net)
             "tmp.indoubt_us")
          (float_of_int
             (Sim_time.diff (Engine.now (Net.engine t.net)) voted_at))

let broadcast t transid tx_state =
  let sent =
    Tx_table.broadcast t.node_state.Tmf_state.tx_tables transid tx_state
  in
  Span.add_state_broadcasts (spans t) (Transid.to_string transid) sent

(* The home node resolves the span: stamp the outcome once and feed the
   commit/abort latency histograms. Participant nodes replaying phase two
   must not re-finish (Span.finish keeps the first verdict anyway). *)
let finish_span t transid outcome =
  if Transid.home transid = own_node t then
    match Span.finish (spans t) (Transid.to_string transid) outcome with
    | None -> ()
    | Some span -> (
        match Span.duration span with
        | None -> ()
        | Some elapsed ->
            let name =
              match outcome with
              | Span.Committed -> "tmf.commit_latency_ms"
              | Span.Aborted _ | Span.Pending -> "tmf.abort_latency_ms"
            in
            Metrics.observe_latency (Net.metrics t.net) name elapsed)

(* ------------------------------------------------------------------ *)
(* Safe delivery *)

let rec retry_loop t process =
  if Queue.is_empty t.safe_queue then t.retry_running <- false
  else begin
    (* Drain this pass's entries up front: everything enqueued while an RPC
       below is in flight lands on [t.safe_queue] and is picked up AFTER the
       survivors. The pass's deliveries all proceed concurrently: each one is
       latency-bound (a round trip plus the receiver's monitor-trail force),
       every transaction gets exactly one phase-two message per child, and
       transactions are independent — so a busy commit path must not
       serialize phase two through one RPC at a time. Concurrent deliveries
       also let the receivers' monitor-trail forces share group-commit
       batches. *)
    let entries = Array.of_seq (Queue.to_seq t.safe_queue) in
    Queue.clear t.safe_queue;
    let kept = Array.make (Array.length entries) false in
    let deliver index =
      let dst, payload = entries.(index) in
      (* A currently-unreachable destination keeps its entry without burning
         an RPC timeout (which would delay deliveries to reachable nodes). *)
      if not (Net.reachable t.net (own_node t) dst) then kept.(index) <- true
      else
        match
          Rpc.call_name t.net ~self:process ~node:dst ~name:"$TMP"
            ~timeout:prepare_timeout ~retries:0 payload
        with
        | Ok Ack -> ()
        | Ok _ | Error _ -> kept.(index) <- true
    in
    Process.iter_concurrently process deliver
      (List.init (Array.length entries) Fun.id);
    (* Requeue survivors (in their original relative order) ahead of entries
       queued during the pass — no fiber suspension between building and
       installing the new queue. *)
    let requeued = Queue.create () in
    Array.iteri
      (fun index entry -> if kept.(index) then Queue.add entry requeued)
      entries;
    Queue.transfer t.safe_queue requeued;
    t.safe_queue <- requeued;
    if not (Queue.is_empty t.safe_queue) then
      Fiber.sleep (Net.engine t.net) safe_retry_interval;
    retry_loop t process
  end

let kick_retry t =
  match t.primary with
  | Some process
    when (not t.retry_running) && Process.is_alive process
         && not (Queue.is_empty t.safe_queue) ->
      t.retry_running <- true;
      Process.spawn_fiber process (fun () -> retry_loop t process)
  | _ -> ()

let safe_deliver t dst payload =
  Metrics.incr (Lazy.force t.tmf_safe_deliveries);
  Queue.add (dst, payload) t.safe_queue;
  kick_retry t

(* ------------------------------------------------------------------ *)
(* Local phase one: participants flush their audit, trails force. *)

let flush_participants t ~self transid =
  let participants = Tmf_state.participants_of t.node_state transid in
  let rec flush_each total = function
    | [] -> Ok total
    | participant :: rest -> (
        match participant.Participant.flush_audit ~self transid with
        | Ok images -> flush_each (total + images) rest
        | Error e -> Error e)
  in
  flush_each 0 participants

let force_trails t ~self transid trails =
  let rec force_each = function
    | [] -> Ok ()
    | trail :: rest -> (
        match Audit_process.force t.net ~self ~node:(own_node t) ~name:trail with
        | Ok () ->
            Span.incr_forced_writes (spans t) (Transid.to_string transid);
            force_each rest
        | Error e -> Error (Format.asprintf "force %s: %a" trail Rpc.pp_error e))
  in
  force_each trails

(* How many audit images this node's trails hold for the transid. Consulted
   AFTER the participants flush: the per-flush counts alone are not "wrote
   anything" — a transaction whose audit was already shipped by an earlier
   flush (mid-transaction, or an abort path that later commits) reports zero
   at END time, and misreading that as read-only would lose its images. The
   per-transid trail index makes this O(trails). *)
let local_audit_images t transid =
  let transid_string = Transid.to_string transid in
  List.fold_left
    (fun acc trail_name ->
      match Hashtbl.find_opt t.node_state.Tmf_state.trails trail_name with
      | None -> acc
      | Some trail ->
          acc + Audit_trail.record_count_for trail ~transid:transid_string)
    0
    (Tmf_state.trails_of t.node_state transid)

(* Flush every participant's audit to the trails and make it durable.
   Returns the number of images the trails now hold for the transaction. A
   transaction that wrote nothing has nothing to make durable, so under the
   read-only optimization the (physical, 25 ms) trail forces are skipped
   entirely; the baseline forces every participating trail regardless. *)
let flush_and_force t ~self transid =
  match flush_participants t ~self transid with
  | Error _ as e -> e
  | Ok _flushed_now ->
      let images = local_audit_images t transid in
      if images = 0 && (hw t).Hw_config.tmp_read_only_votes then Ok 0
      else begin
        match
          force_trails t ~self transid (Tmf_state.trails_of t.node_state transid)
        with
        | Ok () -> Ok images
        | Error _ as e -> e
      end

let release_locks t ~self transid =
  List.iter
    (fun participant -> participant.Participant.release_locks ~self transid)
    (Tmf_state.participants_of t.node_state transid)

let record_disposition ?(forced = true) t disposition transid =
  let transid_string = Transid.to_string transid in
  match
    Monitor_trail.disposition_of t.node_state.Tmf_state.monitor
      ~transid:transid_string
  with
  | Some _ -> ()
  | None ->
      if forced then
        Monitor_trail.record t.node_state.Tmf_state.monitor
          ~transid:transid_string disposition
      else
        Monitor_trail.record_unforced t.node_state.Tmf_state.monitor
          ~transid:transid_string disposition

(* ------------------------------------------------------------------ *)
(* Abort execution (the Aborting -> Aborted path, local side). *)

let monitor_disposition t transid =
  Monitor_trail.disposition_of t.node_state.Tmf_state.monitor
    ~transid:(Transid.to_string transid)

let already_resolved t transid =
  (* A retried phase-two delivery can arrive after the transid has left the
     registry; the monitor trail is the durable record of that. *)
  Tmf_state.find_tx t.node_state transid = None
  && monitor_disposition t transid <> None

let cancel_auto_abort info =
  match info.Tmf_state.auto_abort with
  | Some handle ->
      Engine.cancel handle;
      info.Tmf_state.auto_abort <- None
  | None -> ()

(* One-shot (not safe-delivered) phase-two message: under presumed abort
   the children need no acknowledgment round — a child that never receives
   the abort resolves itself by presumption from the home node's absence of
   information. A lost message costs latency, never correctness. *)
let oneshot_phase2 t ~self dst payload =
  match Node.lookup_name (Net.node t.net dst) "$TMP" with
  | None -> ()
  | Some pid ->
      Net.send t.net (Message.oneway ~src:(Process.pid self) ~dst:pid payload)

(* The Monitor Audit Trail is the authority on a transaction's fate: any
   resolution path consults it first, so a retried/zombie request can never
   reverse a recorded outcome — it completes the recorded one instead. *)
let rec local_abort t ~self transid reason =
  if already_resolved t transid then ()
  else
  let info = Tmf_state.ensure_tx t.node_state transid in
  match info.Tmf_state.resolved with
  | Some _ -> ()
  | None when monitor_disposition t transid = Some Monitor_trail.Committed ->
      (* The commit record is on oxide: this transaction committed, whatever
         asked for the abort. Finish its phase two instead. *)
      local_commit_phase2 t ~self transid
  | None ->
      Trace.emit (Net.trace t.net) "tmf" "node %d: abort %a (%s)" (own_node t)
        Transid.pp transid reason;
      Metrics.incr (Lazy.force t.tmf_aborts);
      Span.mark_backout (spans t) (Transid.to_string transid);
      broadcast t transid Tx_state.Aborting;
      (* All of the transaction's audit records are written to the trails
         while in aborting state, then backout applies the before-images. *)
      (match flush_and_force t ~self transid with
      | Ok _images -> ()
      | Error message ->
          Trace.emit (Net.trace t.net) "tmf" "abort flush failed: %s" message);
      (if info.Tmf_state.local_volumes <> [] then
         match Backout.request t.net ~self ~node:(own_node t) transid with
         | Ok _ -> ()
         | Error message ->
             Trace.emit (Net.trace t.net) "tmf" "backout failed: %s" message);
      (* Presumed abort: the abort record goes to the monitor table without
         a force — after a crash the absence of any record means the same
         thing — and phase two is fire-and-forget instead of safe-delivered,
         eliminating the acknowledgment round. *)
      let presumed = (hw t).Hw_config.tmp_presumed_abort in
      if presumed then begin
        record_disposition ~forced:false t Monitor_trail.Aborted transid;
        Metrics.incr (Lazy.force t.tmp_presumed_aborts)
      end
      else record_disposition t Monitor_trail.Aborted transid;
      broadcast t transid Tx_state.Aborted;
      release_locks t ~self transid;
      observe_indoubt t info;
      info.Tmf_state.resolved <- Some Monitor_trail.Aborted;
      cancel_auto_abort info;
      List.iter
        (fun child ->
          Span.incr_phase2_msgs (spans t) (Transid.to_string transid);
          if presumed then
            oneshot_phase2 t ~self child (Phase2_abort transid)
          else safe_deliver t child (Phase2_abort transid))
        info.Tmf_state.children;
      finish_span t transid (Span.Aborted reason);
      Tmf_state.forget_tx t.node_state transid

(* Phase two of a successful commit, local side. *)
and local_commit_phase2 t ~self transid =
  if already_resolved t transid then ()
  else
  let info = Tmf_state.ensure_tx t.node_state transid in
  match info.Tmf_state.resolved with
  | Some _ -> ()
  | None when monitor_disposition t transid = Some Monitor_trail.Aborted ->
      local_abort t ~self transid "monitor records an abort"
  | None ->
      record_disposition t Monitor_trail.Committed transid;
      Metrics.incr (Lazy.force t.tmf_commits);
      Metrics.incr (Lazy.force t.tmf_commits_by_node);
      Span.mark_phase2 (spans t) (Transid.to_string transid);
      broadcast t transid Tx_state.Ended;
      release_locks t ~self transid;
      observe_indoubt t info;
      info.Tmf_state.resolved <- Some Monitor_trail.Committed;
      cancel_auto_abort info;
      List.iter
        (fun child ->
          Span.incr_phase2_msgs (spans t) (Transid.to_string transid);
          safe_deliver t child (Phase2_commit transid))
        info.Tmf_state.children;
      finish_span t transid Span.Committed;
      Tmf_state.forget_tx t.node_state transid

(* ------------------------------------------------------------------ *)
(* Phase one at this node (and transitively below it). *)

let prepare_one t ~self info child =
  Metrics.incr (Lazy.force t.tmf_prepares_sent);
  Span.incr_prepares (spans t) (Transid.to_string info.Tmf_state.transid);
  (* Request plus reply. *)
  Span.add_messages (spans t) (Transid.to_string info.Tmf_state.transid) 2;
  match
    Rpc.call_name t.net ~self ~node:child ~name:"$TMP"
      ~timeout:prepare_timeout ~retries:1
      (Prepare info.Tmf_state.transid)
  with
  | Ok Prepared_reply -> Ok `Prepared
  | Ok Readonly_reply -> Ok `Read_only
  | Ok (Refused_reply reason) ->
      Error (Printf.sprintf "node %d refused: %s" child reason)
  | Ok _ -> Error (Printf.sprintf "node %d: protocol violation" child)
  | Error e ->
      Error (Format.asprintf "node %d unreachable: %a" child Rpc.pp_error e)

(* A child that voted read-only holds no locks and wrote nothing: it needs
   no phase-two message (commit or abort alike), so it leaves the fan-out. *)
let prune_read_only t info read_only_children =
  match read_only_children with
  | [] -> ()
  | pruned ->
      Metrics.add (Lazy.force t.tmp_phase2_pruned) (List.length pruned);
      info.Tmf_state.children <-
        List.filter
          (fun child -> not (List.mem child pruned))
          info.Tmf_state.children

let prepare_children t ~self info =
  let read_only = ref [] in
  let result =
    if not (hw t).Hw_config.parallel_prepare then begin
      let rec prepare = function
        | [] -> Ok ()
        | child :: rest -> (
            match prepare_one t ~self info child with
            | Ok `Prepared -> prepare rest
            | Ok `Read_only ->
                read_only := child :: !read_only;
                prepare rest
            | Error _ as e -> e)
      in
      prepare info.Tmf_state.children
    end
    else begin
      (* Fan the phase-one requests out concurrently and join. *)
      match info.Tmf_state.children with
      | [] -> Ok ()
      | children ->
          let failure = ref None in
          Process.iter_concurrently self
            (fun child ->
              match prepare_one t ~self info child with
              | Ok `Prepared -> ()
              | Ok `Read_only -> read_only := child :: !read_only
              | Error message ->
                  if !failure = None then failure := Some message)
            children;
          (match !failure with Some message -> Error message | None -> Ok ())
    end
  in
  (* Prune even when phase one failed: a read-only child has already
     released its locks and forgotten the transaction — the abort fan-out
     has nothing to tell it either. *)
  prune_read_only t info !read_only;
  result

(* Local phase one. Returns the number of audit images this node flushed:
   zero marks this node's slice of the transaction as read-only. *)
let local_phase1 t ~self transid =
  Span.mark_phase1 (spans t) (Transid.to_string transid);
  broadcast t transid Tx_state.Ending;
  match flush_and_force t ~self transid with
  | Error _ as e -> e
  | Ok images -> (
      match
        prepare_children t ~self (Tmf_state.ensure_tx t.node_state transid)
      with
      | Ok () -> Ok images
      | Error e -> Error e)

(* Single-node fast path: the spanning tree never left the home node, so
   there is no TMP round at all and the commit decision needs exactly one
   durable point. A commit-marker record appended to the transaction's own
   audit trail rides the data-log force — the separate forced monitor-trail
   write disappears. A transaction that wrote nothing (and has read-only
   votes enabled) commits with no force whatsoever. *)
let fast_path_force t ~self ~generation transid =
  match Tmf_state.trails_of t.node_state transid with
  | [] ->
      if t.node_state.Tmf_state.generation <> generation then
        (* The empty trail list is a post-crash registry shell, not proof
           the transaction wrote nothing. Record no disposition; the caller
           decides from whatever the crash left on oxide. *)
        Ok ()
      else begin
        (* No participating volume (pure BEGIN/END): nothing to carry the
           marker, so pay the ordinary forced monitor record. *)
        record_disposition t Monitor_trail.Committed transid;
        Ok ()
      end
  | trails -> (
      let transid_string = Transid.to_string transid in
      let marker_trail, rest =
        match List.rev trails with
        | last :: before -> (last, List.rev before)
        | [] -> assert false
      in
      (* Other trails first: the marker must be the last thing to become
         durable, so a crash mid-sequence reads as "no marker = aborted". *)
      match force_trails t ~self transid rest with
      | Error _ as e -> e
      | Ok () -> (
          match
            Audit_process.append_images t.net ~self ~node:(own_node t)
              ~name:marker_trail ~transid:transid_string
              [ Audit_record.commit_marker_image ]
          with
          | Error e ->
              Error (Format.asprintf "commit marker: %a" Rpc.pp_error e)
          | Ok () -> (
              match force_trails t ~self transid [ marker_trail ] with
              | Error _ as e -> e
              | Ok () ->
                  (* A force that rode across a total node failure proves
                     nothing: the marker may have died in the dropped
                     unforced tail, and an unforced commit record written
                     now would poison the post-crash monitor table with a
                     commit the data does not back. Leave the decision to
                     the caller's marker check. *)
                  if t.node_state.Tmf_state.generation = generation then
                    record_disposition ~forced:false t
                      Monitor_trail.Committed transid;
                  Ok ())))

let run_fast_path_commit t ~self transid =
  let generation = t.node_state.Tmf_state.generation in
  Span.mark_phase1 (spans t) (Transid.to_string transid);
  broadcast t transid Tx_state.Ending;
  match flush_participants t ~self transid with
  | Error reason ->
      local_abort t ~self transid reason;
      Aborted_reply reason
  | Ok _flushed_now -> (
      let images = local_audit_images t transid in
      let durable =
        if images = 0 && (hw t).Hw_config.tmp_read_only_votes then begin
          (* Read-only: the disposition needs no durability — the data base
             is identical either way. (Unless the node failed meanwhile:
             then the zero image count only describes the wiped buffers,
             and the marker check below must decide.) *)
          if t.node_state.Tmf_state.generation = generation then
            record_disposition ~forced:false t Monitor_trail.Committed
              transid;
          Ok ()
        end
        else fast_path_force t ~self ~generation transid
      in
      match durable with
      | Ok () when t.node_state.Tmf_state.generation <> generation ->
          (* Total node failure while the decision was in flight: the
             flush result and registry entry describe post-crash shells,
             not the transaction. The marker alone decides — on oxide
             before the crash means the commit is durable; absent means
             nothing of the transaction survived, and the client must be
             told to start over. *)
          if Tmf_state.commit_marker_survives t.node_state transid then begin
            Metrics.incr (Lazy.force t.tmp_fast_path_commits);
            local_commit_phase2 t ~self transid;
            Committed_reply
          end
          else begin
            Tmf_state.forget_tx t.node_state transid;
            Aborted_reply "node failed during end-transaction"
          end
      | Ok () ->
          Metrics.incr (Lazy.force t.tmp_fast_path_commits);
          local_commit_phase2 t ~self transid;
          Committed_reply
      | Error reason ->
          local_abort t ~self transid reason;
          Aborted_reply reason)

(* Apply a verdict computed from the acceptor set. The caller already holds
   (or is about to take) the transaction lock where required. *)
let apply_paxos_verdict t ~self transid = function
  | Monitor_trail.Committed -> local_commit_phase2 t ~self transid
  | Monitor_trail.Aborted ->
      local_abort t ~self transid "paxos verdict: aborted"

(* The home's commit decision under Paxos Commit: one combined ballot-0
   round to the acceptors (its own vote plus the participant manifest)
   replaces the forced monitor-trail write — a majority of acceptors holding
   the manifest IS the commit point. The local monitor record is written
   unforced afterwards purely as a cache for status queries; losing it loses
   nothing, because any in-doubt participant learns the verdict from the
   acceptors. *)
let run_paxos_decision t ~self ~acceptors info transid =
  info.Tmf_state.decision_cast <- true;
  let participants =
    List.sort compare (own_node t :: info.Tmf_state.children)
  in
  match
    Paxos_commit.cast_decision t.net ~self ~acceptors ~home:(own_node t)
      ~participants transid
  with
  | Ok () ->
      Metrics.incr (Lazy.force t.tmp_paxos_commits);
      record_disposition ~forced:false t Monitor_trail.Committed transid;
      local_commit_phase2 t ~self transid;
      Committed_reply
  | Error (`Superseded | `No_quorum) -> (
      (* Either a recovery leader beat the home to its own instances, or a
         minority of acceptors may now hold the manifest. Both ways the home
         has lost the right to decide unilaterally: ask the Paxos machinery
         for the chosen (or pinned) verdict. *)
      match Paxos_commit.resolve t.net ~self ~acceptors transid with
      | Ok Monitor_trail.Committed ->
          record_disposition ~forced:false t Monitor_trail.Committed transid;
          local_commit_phase2 t ~self transid;
          Committed_reply
      | Ok Monitor_trail.Aborted ->
          local_abort t ~self transid "superseded: recovery chose abort";
          Aborted_reply "superseded: recovery chose abort"
      | Error (`Unreachable | `Contended) ->
          (* No acceptor majority reachable: the outcome is genuinely in
             doubt. Locks stay held; the transaction timer retries the
             resolution until a quorum answers. *)
          Status_reply { disposition = None; live = true })

(* Home-node commit coordination (END-TRANSACTION). *)
let run_commit t ~self transid =
  let generation = t.node_state.Tmf_state.generation in
  let info = Tmf_state.ensure_tx t.node_state transid in
  match
    (info.Tmf_state.resolved, monitor_disposition t transid)
  with
  | Some Monitor_trail.Committed, _ | _, Some Monitor_trail.Committed ->
      (* Recorded commit (possibly by a predecessor TMP incarnation):
         idempotently finish phase two and confirm. *)
      local_commit_phase2 t ~self transid;
      Committed_reply
  | Some Monitor_trail.Aborted, _ | _, Some Monitor_trail.Aborted ->
      Aborted_reply "already aborted"
  | None, None ->
      if info.Tmf_state.locally_aborted then begin
        local_abort t ~self transid "aborted before end-transaction";
        Aborted_reply "aborted by system"
      end
      else if
        (hw t).Hw_config.tmp_single_node_fast_path
        && info.Tmf_state.children = []
      then run_fast_path_commit t ~self transid
      else begin
        match local_phase1 t ~self transid with
        | Ok images when t.node_state.Tmf_state.generation <> generation ->
            (* Total node failure mid phase one: buffered audit and the
               registry entry are gone, so [images] and the children list
               describe a post-crash shell. No commit record was written
               (that happens in phase two), so unless an earlier
               incarnation got one onto oxide this transaction is dead. *)
            ignore images;
            (match monitor_disposition t transid with
            | Some Monitor_trail.Committed ->
                local_commit_phase2 t ~self transid;
                Committed_reply
            | Some Monitor_trail.Aborted | None ->
                Tmf_state.forget_tx t.node_state transid;
                Aborted_reply "node failed during end-transaction")
        | Ok images -> (
            match paxos_acceptors t with
            | Some acceptors when info.Tmf_state.children <> [] ->
                (* Distributed commit under Paxos: the decision round goes
                   to the acceptors instead of the local monitor force. The
                   manifest is cast after phase one, so read-only children
                   are already pruned out of it. *)
                run_paxos_decision t ~self ~acceptors info transid
            | Some _ | None ->
                (* Every child voted read-only and this node wrote nothing:
                   nobody holds anything, so the commit record itself needs
                   no force — there is no data whose fate it decides. *)
                if
                  images = 0
                  && info.Tmf_state.children = []
                  && (hw t).Hw_config.tmp_read_only_votes
                then
                  record_disposition ~forced:false t Monitor_trail.Committed
                    transid;
                local_commit_phase2 t ~self transid;
                Committed_reply)
        | Error reason ->
            local_abort t ~self transid reason;
            Aborted_reply reason
      end

(* Phase one request from the parent node. *)
let on_prepare t ~self transid =
  let generation = t.node_state.Tmf_state.generation in
  match Tmf_state.find_tx t.node_state transid with
  | None -> (
      (* Either remote-begin never arrived, or we already resolved and
         forgot. Answer from the monitor trail if the latter. *)
      match monitor_disposition t transid with
      | Some Monitor_trail.Committed -> Prepared_reply
      | Some Monitor_trail.Aborted -> Refused_reply "already aborted here"
      | None ->
          if
            (hw t).Hw_config.tmp_read_only_votes
            && t.node_state.Tmf_state.generation = 0
          then
            (* Nothing registered, no record: this node holds no locks and
               wrote no images for the transid — it has no stake in the
               outcome. (Also answers a retried prepare whose first reply
               was lost after a read-only vote released everything.) The
               inference is only sound while the registry has never been
               wiped: after a total node failure a participant that wrote
               here looks exactly like a stranger, and a read-only vote
               would let the parent commit work this node already lost.
               Refuse instead — the occasional needless abort of a
               genuinely read-only retry is the safe side. *)
            Readonly_reply
          else Refused_reply "transaction unknown here")
  | Some info -> (
      match monitor_disposition t transid with
      | Some Monitor_trail.Committed -> Prepared_reply
      | Some Monitor_trail.Aborted -> Refused_reply "already aborted here"
      | None ->
          if info.Tmf_state.locally_aborted then
            Refused_reply "unilaterally aborted here"
          else if info.Tmf_state.voted_yes then Prepared_reply (* retry *)
          else begin
            match local_phase1 t ~self transid with
            | Ok _ when t.node_state.Tmf_state.generation <> generation ->
                (* Total node failure mid-flush: whatever was "forced" is a
                   post-crash shell and this node's slice of the
                   transaction is gone. Refusing makes the parent abort —
                   the only sound outcome for writes that no longer
                   exist. *)
                Tmf_state.forget_tx t.node_state transid;
                Refused_reply "node failed during prepare"
            | Ok images ->
                if
                  (hw t).Hw_config.tmp_read_only_votes
                  && images = 0
                  && info.Tmf_state.children = []
                then begin
                  (* Read-only vote: release the locks now — the outcome
                     cannot touch this node's data — write no monitor
                     record, and leave the protocol entirely. The parent
                     prunes this node from phase two. *)
                  Metrics.incr (Lazy.force t.tmp_read_only_votes);
                  release_locks t ~self transid;
                  broadcast t transid Tx_state.Ended;
                  cancel_auto_abort info;
                  Tmf_state.forget_tx t.node_state transid;
                  Readonly_reply
                end
                else begin
                  match paxos_acceptors t with
                  | Some acceptors -> (
                      (* Paxos Commit: the binding vote is not this reply —
                         it is the Prepared value replicated at a majority
                         of acceptors (this node's own vote instance, cast
                         at its pre-assigned ballot 0). The reply to the
                         parent is then just flow control. *)
                      match
                        Paxos_commit.cast_vote t.net ~self ~acceptors transid
                      with
                      | Ok ()
                        when t.node_state.Tmf_state.generation <> generation
                        ->
                          (* The node failed while the vote was in flight:
                             the locks and volatile undo the vote promised
                             to hold are gone. Refuse — recovery's abort
                             default settles the replicated vote. *)
                          Tmf_state.forget_tx t.node_state transid;
                          Refused_reply "node failed during prepare"
                      | Ok () ->
                          info.Tmf_state.voted_yes <- true;
                          info.Tmf_state.voted_at <-
                            Some (Engine.now (Net.engine t.net));
                          Prepared_reply
                      | Error reason ->
                          local_abort t ~self transid reason;
                          Refused_reply reason)
                  | None ->
                      info.Tmf_state.voted_yes <- true;
                      info.Tmf_state.voted_at <-
                        Some (Engine.now (Net.engine t.net));
                      Prepared_reply
                end
            | Error reason ->
                local_abort t ~self transid reason;
                Refused_reply reason
          end)

(* Home-node status probe: disposition plus whether the transaction is
   still live (registered) there. "No record and not live" is the presumed
   abort — the home either never decided or already presumed-aborted and
   lost the unforced record; either way it can never commit now. *)
let query_status net ~self ~node transid =
  match Rpc.call_name net ~self ~node ~name:"$TMP" (Query_status transid) with
  | Ok (Status_reply { disposition; live }) -> Ok (disposition, live)
  | Ok _ | Error _ -> Error `Unreachable

(* Serialize resolution work per transaction: END, ABORT, prepares and
   phase-two deliveries may arrive concurrently; each waits its turn and
   re-checks the outcome inside. A lookup for a transid no longer in the
   registry (a duplicate abort, a retried phase-two delivery) re-creates
   the entry purely to serialize on; if the body then leaves it unresolved
   it must not linger as an orphan, so it inherits the transaction timer. *)
let rec with_tx_lock : 'a. t -> Transid.t -> (unit -> 'a) -> 'a =
 fun t transid body ->
  let info = Tmf_state.ensure_tx t.node_state transid in
  let result = Fiber_mutex.with_lock info.Tmf_state.resolution_lock body in
  (* Not only the entry this call created: a body that runs after the lock
     holder resolved-and-forgot the transid can re-create the entry itself
     (an [ensure_tx] inside [run_commit] answering "already aborted") and
     leave it unresolved. Whatever is registered now, if nothing will ever
     resolve or expire it, it is an orphan — give it the timer. *)
  (match Tmf_state.find_tx t.node_state transid with
   | Some info'
     when info'.Tmf_state.resolved = None
          && info'.Tmf_state.auto_abort = None ->
       arm_transaction_timer t transid
   | Some _ | None -> ());
  result

(* In-doubt resolution for a voted-yes participant under presumed abort:
   the safe-delivered acknowledgment round is gone for aborts, so the
   participant is responsible for asking. While the home still carries the
   transaction live (mid-phase-one, or phase two on its way) keep waiting —
   only the home's *absence of information* means abort. *)
and resolve_in_doubt t ~self transid =
  match paxos_acceptors t with
  | Some acceptors -> resolve_in_doubt_paxos t ~self ~acceptors transid
  | None -> (
      match
        query_status t.net ~self ~node:(Transid.home transid) transid
      with
      | Ok (Some Monitor_trail.Committed, _) ->
          with_tx_lock t transid (fun () ->
              local_commit_phase2 t ~self transid)
      | Ok (Some Monitor_trail.Aborted, _) ->
          with_tx_lock t transid (fun () ->
              local_abort t ~self transid "home node recorded an abort")
      | Ok (None, false) ->
          Metrics.incr (Lazy.force t.tmp_presumed_aborts);
          with_tx_lock t transid (fun () ->
              local_abort t ~self transid "presumed abort: home has no record")
      | Ok (None, true) | Error `Unreachable -> ())

(* Paxos Commit in-doubt resolution — the non-blocking path. The home's
   absence of information no longer means abort (its commit record is
   unforced under Paxos, so a crashed home may have committed and lost the
   note); instead the acceptors are the authority. A cheap learner read
   answers when the verdict is chosen; while the home is demonstrably alive
   and still working we wait rather than contend with it; otherwise this
   node becomes a recovery leader and drives the open instances to a
   verdict — holding locks only until an acceptor majority answers, not
   until the home is repaired. *)
and resolve_in_doubt_paxos t ~self ~acceptors transid =
  match Paxos_commit.learn t.net ~self ~acceptors transid with
  | Paxos_commit.Decided disposition ->
      with_tx_lock t transid (fun () ->
          apply_paxos_verdict t ~self transid disposition)
  | Paxos_commit.Unknown -> (
      let home = Transid.home transid in
      (* An unreachable home gets no RPC (and no timeout wait) — recovery
         at the acceptors is the whole point of the protocol, and burning
         the retry window on a dead node would leave the locks held for
         another timer period. *)
      match
        if Net.reachable t.net (own_node t) home then
          query_status t.net ~self ~node:home transid
        else Error `Unreachable
      with
      | Ok (Some disposition, _) ->
          with_tx_lock t transid (fun () ->
              apply_paxos_verdict t ~self transid disposition)
      | Ok (None, true) -> () (* the home is alive and mid-protocol *)
      | Ok (None, false) | Error `Unreachable -> (
          match Paxos_commit.recover t.net ~self ~acceptors transid with
          | Ok disposition ->
              with_tx_lock t transid (fun () ->
                  apply_paxos_verdict t ~self transid disposition)
          | Error (`Unreachable | `Contended) ->
              (* No acceptor majority (or a leader storm): the timer
                 retries. *)
              ()))

(* The transaction time limit: an abandoned transaction (its requester
   died, or its abort request never arrived) must not hold locks forever.
   A node that has voted yes is exempt — it holds for the disposition. The
   timer RE-ARMS until the transaction actually resolves: the abort fiber
   itself can die with its processor, and an orphan must never survive
   that. *)
and arm_transaction_timer t transid =
  (* Arm only a transaction that is still registered: a timer that outlived
     its transaction (a pre-crash timer firing after the registry was wiped,
     or a fire racing a concurrent resolution) must expire quietly — an
     [ensure_tx] here would re-create the entry right after [forget_tx]
     dropped it, re-arm on the fresh entry, and cycle forever, pinning the
     event queue nonempty. *)
  match Tmf_state.find_tx t.node_state transid with
  | None -> ()
  | Some info ->
  if info.Tmf_state.auto_abort = None && info.Tmf_state.resolved = None then
    info.Tmf_state.auto_abort <-
      Some
        (Engine.schedule_after (Net.engine t.net)
           (hw t).Hw_config.transaction_time_limit (fun () ->
             info.Tmf_state.auto_abort <- None;
             match info.Tmf_state.resolved with
             | Some _ -> ()
             | None ->
                 (match t.primary with
                 | Some process when Process.is_alive process ->
                     if not info.Tmf_state.voted_yes then begin
                       match paxos_acceptors t with
                       | Some acceptors when info.Tmf_state.decision_cast ->
                           (* The home attempted its decision round: a
                              minority acceptor may hold the manifest, so a
                              unilateral abort here could contradict a later
                              recovery. Only the acceptors settle it now. *)
                           Process.spawn_fiber process (fun () ->
                               match
                                 Paxos_commit.resolve t.net ~self:process
                                   ~acceptors transid
                               with
                               | Ok disposition ->
                                   with_tx_lock t transid (fun () ->
                                       apply_paxos_verdict t ~self:process
                                         transid disposition)
                               | Error (`Unreachable | `Contended) -> ())
                       | Some _ | None ->
                           Metrics.incr (Lazy.force t.tmf_auto_aborts);
                           Process.spawn_fiber process (fun () ->
                               with_tx_lock t transid (fun () ->
                                   (* Re-check under the resolution lock: a
                                      prepare in flight at fire time may
                                      have voted yes while this fiber waited
                                      for the lock, and a voted-yes
                                      participant must never abort
                                      unilaterally — the home may already
                                      have committed on that vote. The next
                                      timer cycle resolves it instead. *)
                                   match Tmf_state.find_tx t.node_state transid with
                                   | Some current
                                     when (not current.Tmf_state.voted_yes)
                                          && current.Tmf_state.resolved = None
                                     ->
                                       local_abort t ~self:process transid
                                         "transaction time limit"
                                   | Some _ | None -> ()))
                     end
                     else if
                       Transid.home transid <> own_node t
                       && ((hw t).Hw_config.tmp_presumed_abort
                          || paxos_acceptors t <> None)
                     then
                       (* A voted-yes participant cannot abort unilaterally,
                          but under presumed abort no acknowledged phase-two
                          message is coming for an abort (and under Paxos
                          the acceptors can always answer): ask. *)
                       Process.spawn_fiber process (fun () ->
                           resolve_in_doubt t ~self:process transid)
                 | _ -> ());
                 arm_transaction_timer t transid))

(* ------------------------------------------------------------------ *)
(* Service loop *)

let handle t process message =
  match message.Message.payload with
  | Client_end transid ->
      Process.spawn_fiber process (fun () ->
          let reply =
            if Transid.home transid <> own_node t then
              Refused_reply "not the home node"
            else if
              Tmf_state.find_tx t.node_state transid = None
              && monitor_disposition t transid = None
            then
              (* Unknown at its own home with no durable record: every
                 live transaction is registered here at BEGIN, so the
                 entry died with the node's memory. Re-creating a shell
                 and committing it would look read-only (no volumes, no
                 children) and confirm a transaction whose surviving
                 participants are later presumed-aborted. *)
              Aborted_reply "unknown at home: presumed abort"
            else
              with_tx_lock t transid (fun () ->
                  run_commit t ~self:process transid)
          in
          Rpc.reply t.net ~self:process ~to_:message reply)
  | Client_abort { transid; reason } ->
      Process.spawn_fiber process (fun () ->
          let reply =
            with_tx_lock t transid (fun () ->
                match
                  ( monitor_disposition t transid,
                    Tmf_state.find_tx t.node_state transid )
                with
                | Some Monitor_trail.Committed, _ -> Refused_reply "committed"
                | Some Monitor_trail.Aborted, _ -> Aborted_reply reason
                | None, None ->
                    (* Forgotten (or never begun here): presumed abort
                       already answers, and re-registering the transid
                       would leak an entry nothing ever resolves. *)
                    Aborted_reply reason
                | None, Some { Tmf_state.resolved = Some d; _ } -> (
                    match d with
                    | Monitor_trail.Committed -> Refused_reply "committed"
                    | Monitor_trail.Aborted -> Aborted_reply reason)
                | None, Some ({ Tmf_state.resolved = None; _ } as info) ->
                    if
                      info.Tmf_state.voted_yes
                      && Transid.home transid <> own_node t
                    then Refused_reply "already voted yes"
                    else begin
                      info.Tmf_state.locally_aborted <- true;
                      Metrics.incr (Lazy.force t.tmf_unilateral_aborts);
                      local_abort t ~self:process transid reason;
                      Aborted_reply reason
                    end)
          in
          Rpc.reply t.net ~self:process ~to_:message reply)
  | Remote_begin transid ->
      let known = Tmf_state.find_tx t.node_state transid <> None in
      let reply =
        if known || Transid.home transid = own_node t then Known_reply
        else begin
          ignore (Tmf_state.ensure_tx t.node_state transid);
          Metrics.incr (Lazy.force t.tmf_remote_begins);
          arm_transaction_timer t transid;
          broadcast t transid Tx_state.Active;
          Registered_reply
        end
      in
      Rpc.reply t.net ~self:process ~to_:message reply
  | Prepare transid ->
      Process.spawn_fiber process (fun () ->
          let reply =
            if
              t.node_state.Tmf_state.generation > 0
              && Tmf_state.find_tx t.node_state transid = None
              && monitor_disposition t transid = None
            then
              (* Checked before [with_tx_lock], whose [ensure_tx] would
                 re-create a shell entry that then looks like a registered
                 read-only participant. After a total node failure an
                 unknown transid may be a participant whose registration
                 (and writes) died with the node's memory — voting
                 read-only would let the parent commit work this node
                 already lost. *)
              Refused_reply "unknown after node failure"
            else
              with_tx_lock t transid (fun () ->
                  on_prepare t ~self:process transid)
          in
          Rpc.reply t.net ~self:process ~to_:message reply)
  | Phase2_commit transid ->
      Process.spawn_fiber process (fun () ->
          with_tx_lock t transid (fun () ->
              local_commit_phase2 t ~self:process transid);
          match message.Message.kind with
          | Message.Request -> Rpc.reply t.net ~self:process ~to_:message Ack
          | Message.Reply | Message.Oneway -> ())
  | Phase2_abort transid ->
      Process.spawn_fiber process (fun () ->
          with_tx_lock t transid (fun () ->
              local_abort t ~self:process transid "aborted by home node");
          (* A one-shot (presumed abort) delivery expects no Ack. *)
          match message.Message.kind with
          | Message.Request -> Rpc.reply t.net ~self:process ~to_:message Ack
          | Message.Reply | Message.Oneway -> ())
  | Query_disposition transid ->
      Process.spawn_fiber process (fun () ->
          let disposition =
            match monitor_disposition t transid with
            | Some d -> Some d
            | None
              when Transid.home transid = own_node t
                   && Tmf_state.find_tx t.node_state transid <> None ->
                (* A recovering participant is asking about a
                   transaction still live at this home: its prepared
                   state (locks, volatile undo) died with its node, so
                   a commit this coordinator might still reach could
                   never be honored there. Serialize against any
                   in-flight END (the tx lock), then make the answer
                   true forever: either a disposition now exists, or
                   abort before replying so the backout the asker is
                   about to do stays correct. *)
                with_tx_lock t transid (fun () ->
                    match monitor_disposition t transid with
                    | Some d -> Some d
                    | None ->
                        local_abort t ~self:process transid
                          "participant lost prepared state";
                        Some Monitor_trail.Aborted)
            | None -> None
          in
          Rpc.reply t.net ~self:process ~to_:message
            (Disposition_reply disposition))
  | Query_status transid ->
      Rpc.reply t.net ~self:process ~to_:message
        (Status_reply
           {
             disposition = monitor_disposition t transid;
             live = Tmf_state.find_tx t.node_state transid <> None;
           })
  | _ -> ()

let service t pair process =
  t.primary <- Some process;
  t.retry_running <- false;
  kick_retry t;
  Process_pair.serve pair process (handle t process)

let spawn ~net ~state ~primary_cpu ~backup_cpu =
  let metrics = Net.metrics net in
  let counter name = lazy (Metrics.counter metrics name) in
  let t =
    {
      net;
      node_state = state;
      safe_queue = Queue.create ();
      retry_running = false;
      primary = None;
      tmf_safe_deliveries = counter "tmf.safe_deliveries";
      tmf_aborts = counter "tmf.aborts";
      tmf_commits = counter "tmf.commits";
      tmf_prepares_sent = counter "tmf.prepares_sent";
      tmf_auto_aborts = counter "tmf.auto_aborts";
      tmf_unilateral_aborts = counter "tmf.unilateral_aborts";
      tmf_remote_begins = counter "tmf.remote_begins";
      tmf_commits_by_node =
        lazy
          (Metrics.counter_with metrics "tmf.commits_by_node"
             ~labels:[ ("node", string_of_int (Node.id state.Tmf_state.node)) ]);
      tmp_presumed_aborts = counter "tmp.presumed_aborts";
      tmp_phase2_pruned = counter "tmp.phase2_pruned";
      tmp_fast_path_commits = counter "tmp.fast_path_commits";
      tmp_paxos_commits = counter "tmp.paxos_commits";
      tmp_read_only_votes = counter "tmp.read_only_votes";
    }
  in
  ignore
    (Process_pair.create ~net ~node:state.Tmf_state.node
       ~name:state.Tmf_state.tmp_name ~primary_cpu ~backup_cpu
       ~service:(service t));
  t

(* ------------------------------------------------------------------ *)
(* Client operations *)

let end_transaction net ~self ~home transid =
  match
    (* Single attempt: a retry could start a second coordinator fiber for
       the same transaction. On timeout the outcome is in doubt — query the
       disposition rather than resend. *)
    Rpc.call_name net ~self ~node:home ~name:"$TMP"
      ~timeout:(Sim_time.seconds 15) ~retries:0 (Client_end transid)
  with
  | Ok Committed_reply -> Ok ()
  | Ok (Aborted_reply reason) -> Error (`Aborted reason)
  | Ok (Refused_reply reason) -> Error (`Aborted reason)
  | Ok _ | Error _ -> Error `Unknown_outcome

let abort_transaction net ~self ~node ~reason transid =
  match
    Rpc.call_name net ~self ~node ~name:"$TMP" (Client_abort { transid; reason })
  with
  | Ok (Aborted_reply _) -> Ok ()
  | Ok (Refused_reply _) -> Error `Too_late
  | Ok _ | Error _ -> Error `Unreachable

let remote_begin net ~self ~to_node transid =
  match
    Rpc.call_name net ~self ~node:to_node ~name:"$TMP" (Remote_begin transid)
  with
  | Ok Registered_reply -> Ok `Registered
  | Ok Known_reply -> Ok `Known
  | Ok _ | Error _ -> Error `Unreachable

let query_disposition net ~self ~node transid =
  match
    Rpc.call_name net ~self ~node ~name:"$TMP" (Query_disposition transid)
  with
  | Ok (Disposition_reply d) -> Ok d
  | Ok _ | Error _ -> Error `Unreachable

let force_disposition t ~self transid disposition =
  with_tx_lock t transid (fun () ->
      match disposition with
      | Monitor_trail.Committed -> local_commit_phase2 t ~self transid
      | Monitor_trail.Aborted ->
          local_abort t ~self transid "operator forced abort")

(* Voted-yes participants still holding locks for someone else's verdict —
   what `tandem indoubt` lists and the chaos checks probe. Sorted by transid
   for deterministic output. *)
let in_doubt_transactions t =
  Tbl.String.fold
    (fun _ info acc ->
      if
        info.Tmf_state.voted_yes
        && info.Tmf_state.resolved = None
        && Transid.home info.Tmf_state.transid <> own_node t
      then info :: acc
      else acc)
    t.node_state.Tmf_state.registry []
  |> List.sort (fun a b ->
         String.compare
           (Transid.to_string a.Tmf_state.transid)
           (Transid.to_string b.Tmf_state.transid))
