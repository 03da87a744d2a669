open Tandem_os
open Tandem_audit
module Fiber = Tandem_sim.Fiber
module Fiber_mutex = Tandem_sim.Fiber_mutex
module Metrics = Tandem_sim.Metrics
module Engine = Tandem_sim.Engine
module Sim_time = Tandem_sim.Sim_time
module Tbl = Tandem_sim.Tbl
module Transid = Tandem_sim.Transid

type target = {
  target_volume : string;
  take_snapshot : unit -> unit -> unit;
  unflushed_images : unit -> Audit_record.image list;
  redo : Audit_record.image -> unit;
  undo : Audit_record.image -> unit;
  prefetch : Audit_record.image -> unit;
      (* Read-only descent to the image's key, warming the volume cache.
         Safe to run concurrently with other prefetches (never with an
         applier): nothing structural moves under it. *)
}

type archive = {
  volume_restorers : (string * (unit -> unit)) list;
  trail_positions : (string * int) list;
      (* trail name -> first sequence not yet forced at archive time; the
         replay starts there, so it covers the unforced tail *)
  open_transactions : Transid.t list;
      (* unresolved at archive time: their pre-archive images are loser
         candidates *)
  loser_images : Audit_record.image list;
      (* newest first: writes visible in the fuzzy dump whose undo images
         live only in volatile memory (the disc process's unflushed audit
         buffer, or a trail's appended-but-unforced tail). The crash that
         makes this archive relevant destroys those images, so they must be
         carried by the archive itself and backed out unconditionally at
         restore — their transactions had not committed when the archive
         was taken (every commit path forces its audit first). One that
         commits later forces those images into its trail, at or after the
         archive's position, and the replay redoes them. *)
}

type t = {
  net : Net.t;
  state : Tmf_state.node_state;
  mutable targets : target list;
}

type stats = {
  images_scanned : int;
  images_applied : int;
  images_undone : int;
  transactions_redone : int;
  transactions_discarded : int;
  in_doubt : Transid.t list;
}

let pp_stats formatter stats =
  Format.fprintf formatter
    "scanned %d images, applied %d, undone %d (%d tx redone, %d discarded, %d in doubt)"
    stats.images_scanned stats.images_applied stats.images_undone
    stats.transactions_redone stats.transactions_discarded
    (List.length stats.in_doubt)

let create ~net ~state = { net; state; targets = [] }

let register_target t target = t.targets <- target :: t.targets

let take_archive t =
  {
    volume_restorers =
      List.map
        (fun target -> (target.target_volume, target.take_snapshot ()))
        t.targets;
    trail_positions =
      Hashtbl.fold
        (fun name trail acc ->
          let position = Audit_trail.forced_up_to trail + 1 in
          (* The replay reads from [position] on, and every record of the
             transactions open now: the trail must keep them all. *)
          Audit_trail.retain_from trail ~sequence:position;
          (name, position) :: acc)
        t.state.Tmf_state.trails [];
    open_transactions =
      Tbl.String.fold
        (fun _ info acc ->
          if info.Tmf_state.resolved = None then info.Tmf_state.transid :: acc
          else acc)
        t.state.Tmf_state.registry [];
    loser_images =
      (* Buffered images are the newest writes (they have not even reached
         the trail), so they go first; the unforced trail tails follow,
         newest first. *)
      List.concat_map (fun target -> target.unflushed_images ()) t.targets
      @ Hashtbl.fold
          (fun _ trail acc ->
            List.rev_map
              (fun record -> record.Audit_record.image)
              (Audit_trail.unforced_records trail)
            @ acc)
          t.state.Tmf_state.trails [];
  }

let archive_trail_gap t archive =
  List.fold_left
    (fun acc (name, position) ->
      match Hashtbl.find_opt t.state.Tmf_state.trails name with
      | None -> acc
      | Some trail ->
          acc + max 0 (Audit_trail.forced_up_to trail + 1 - position))
    0 archive.trail_positions

let own_node t = Node.id t.state.Tmf_state.node

(* Disposition of a transaction found in the trails: the local monitor
   trail if it knows; otherwise negotiate with the home node (2PC) or the
   acceptor set (Paxos Commit). *)
let rec disposition_of t ~self transid =
  match
    Monitor_trail.disposition_of t.state.Tmf_state.monitor ~transid
  with
  | Some d -> `Known d
  | None -> (
      match (Net.config t.net).Hw_config.tmp_commit_protocol with
      | `Paxos count ->
          (* Under Paxos the home's commit record is unforced — its absence
             after a crash proves nothing. A single-node fast-path commit
             still decides by its marker; everything else asks the
             acceptors, where a recovery ballot also pins a never-decided
             transaction to abort. *)
          if
            Transid.home transid = own_node t
            && Tmf_state.commit_marker_survives t.state transid
          then `Known Monitor_trail.Committed
          else begin
            let acceptors = Paxos_commit.acceptor_nodes t.net count in
            match Paxos_commit.resolve t.net ~self ~acceptors transid with
            | Ok d -> `Known d
            | Error (`Unreachable | `Contended) -> `In_doubt
          end
      | `Two_phase -> two_phase_disposition t ~self transid)

and two_phase_disposition t ~self transid =
      if Transid.home transid = own_node t then
        if Tmf_state.commit_marker_survives t.state transid then
          `Known Monitor_trail.Committed
        else
          (* Homed here, no commit record, no marker: it never committed —
             under presumed abort this is also how an in-doubt abort whose
             unforced record died with the node resolves. *)
          `Known Monitor_trail.Aborted
      else begin
        match Tmp.query_disposition t.net ~self ~node:(Transid.home transid) transid with
        | Ok (Some d) -> `Known d
        | Ok None ->
            (* The home node has no record either: the transaction never
               reached its commit point anywhere. *)
            `Known Monitor_trail.Aborted
        | Error `Unreachable -> `In_doubt
      end

(* ------------------------------------------------------------------ *)
(* Recovery *)

let target_for t image =
  List.find_opt
    (fun target -> String.equal target.target_volume image.Audit_record.volume)
    t.targets

(* Step 1: mount the archived copies, then scrub the fuzz — writes the
   dump caught whose undo images died with volatile memory (unflushed
   disc-process buffers, unforced trail tails). Their transactions had not
   committed when the archive was taken, so they are backed out
   unconditionally; one that committed later is redone by the replay.
   Returns how many images were backed out. *)
let restore_archive t archive =
  List.iter (fun (_, restore) -> restore ()) archive.volume_restorers;
  let undone = ref 0 in
  List.iter
    (fun image ->
      match target_for t image with
      | Some target ->
          target.undo image;
          incr undone
      | None -> ())
    archive.loser_images;
  !undone

(* Pre-archive records of transactions open at archive time (their images
   are loser candidates for the undo pass), ascending by sequence within
   the trail. Read through the per-transid index — O(records of the open
   transactions), not O(trail). Every record below the archive's position
   was already forced when the archive was taken. *)
let pre_archive_open_records trail ~position open_transactions =
  List.fold_left
    (fun acc transid ->
      List.fold_left
        (fun acc record ->
          if record.Audit_record.sequence < position then record :: acc
          else acc)
        acc
        (Audit_trail.records_for trail ~transid))
    [] open_transactions
  |> List.sort (fun a b ->
         Int.compare a.Audit_record.sequence b.Audit_record.sequence)

(* Resolve each transaction once; the verdict table doubles as the memo. *)
let verdict_for t ~self verdicts transid =
  let key = Transid.to_string transid in
  match Hashtbl.find_opt verdicts key with
  | Some (_, v) -> v
  | None ->
      let v = disposition_of t ~self transid in
      Hashtbl.replace verdicts key (transid, v);
      v

let is_loser verdict =
  match verdict with
  | `Known Monitor_trail.Aborted | `In_doubt -> true
  | `Known Monitor_trail.Committed -> false

let assemble_stats verdicts ~scanned ~applied ~undone =
  let count p =
    Hashtbl.fold (fun _ (_, v) acc -> if p v then acc + 1 else acc) verdicts 0
  in
  {
    images_scanned = scanned;
    images_applied = applied;
    images_undone = undone;
    transactions_redone = count (fun v -> v = `Known Monitor_trail.Committed);
    transactions_discarded = count (fun v -> v = `Known Monitor_trail.Aborted);
    in_doubt =
      Hashtbl.fold
        (fun _ (transid, v) acc -> if v = `In_doubt then transid :: acc else acc)
        verdicts [];
  }

(* A replay chain: records that one worker applies in audit order. Both
   lists are built newest-first. *)
type chain = {
  mutable redo_rev : Audit_record.t list; (* post-archive records *)
  mutable undo_rev : Audit_record.t list; (* pre-archive-open @ post-archive *)
}

(* Partition one trail's replay set into chains, newest-created first.
   Without [dependency] the whole trail is one chain. With it, a chain is
   one connected component of the inter-transaction edges derived from the
   trail's forced records: all surviving records that touch a common
   (volume, file, key) are transitively connected by the edges (consecutive
   surviving writers of a key always get one), so distinct chains touch
   disjoint keys and commute. Unioning through a transaction absent from
   the replay set (resolved pre-archive) is deliberate: dependency is
   transitive through the key history, so merging conservatively is always
   sound. *)
let trail_chains ~dependency trail ~pre_open ~redo_records =
  let root =
    if not dependency then fun _ -> ""
    else begin
      let parent : (string, string) Hashtbl.t = Hashtbl.create 64 in
      let rec find transid =
        match Hashtbl.find_opt parent transid with
        | None -> transid
        | Some p ->
            let root = find p in
            if not (String.equal root p) then Hashtbl.replace parent transid root;
            root
      in
      List.iter
        (fun (a, b) ->
          let ra = find (Transid.to_string a)
          and rb = find (Transid.to_string b) in
          if not (String.equal ra rb) then Hashtbl.replace parent ra rb)
        (Audit_trail.dependency_edges trail);
      fun transid -> find (Transid.to_string transid)
    end
  in
  let chain_of : (string, chain) Hashtbl.t = Hashtbl.create 64 in
  let chains = ref [] in
  let chain_for transid =
    let root = root transid in
    match Hashtbl.find_opt chain_of root with
    | Some chain -> chain
    | None ->
        let chain = { redo_rev = []; undo_rev = [] } in
        Hashtbl.replace chain_of root chain;
        chains := chain :: !chains;
        chain
  in
  List.iter
    (fun record ->
      let chain = chain_for record.Audit_record.transid in
      chain.undo_rev <- record :: chain.undo_rev)
    pre_open;
  List.iter
    (fun record ->
      let chain = chain_for record.Audit_record.transid in
      chain.redo_rev <- record :: chain.redo_rev;
      chain.undo_rev <- record :: chain.undo_rev)
    redo_records;
  !chains

(* The replay. [`Sequential] is the paper's algorithm: each trail is one
   chain, replayed in audit order on one worker. [`Chains workers] is the
   dependency-partitioned replay: each trail's dependency chains run on a
   pool of [workers] fibers. Both must produce the identical final state.
   Chains touch disjoint keys, but B-tree and slotted-page mutations span
   several block I/Os (each a suspension point), so image applications
   serialize per (volume, file) behind a fiber mutex — the parallelism that
   remains is exactly the physical kind: disc reads overlapped across
   volumes, files and mirror halves, and disposition RPCs overlapped with
   each other. *)
let replay t ~self archive =
  let dependency, workers =
    match (Net.config t.net).Hw_config.rollforward_parallelism with
    | `Sequential -> (false, 1)
    | `Chains workers -> (true, workers)
  in
  let undone = ref (restore_archive t archive) in
  (* Step 2: scan the surviving (forced) audit — everything from each
     trail's archive position on, plus the full history of transactions
     that were open when the archive was taken. *)
  let per_trail =
    List.filter_map
      (fun (name, position) ->
        match Hashtbl.find_opt t.state.Tmf_state.trails name with
        | None -> None
        | Some trail ->
            let redo_records =
              Audit_trail.records_from trail ~sequence:position
            in
            let pre_open =
              pre_archive_open_records trail ~position archive.open_transactions
            in
            Some (trail, pre_open, redo_records))
      archive.trail_positions
  in
  let chains =
    List.concat_map
      (fun (trail, pre_open, redo_records) ->
        trail_chains ~dependency trail ~pre_open ~redo_records)
      per_trail
  in
  if dependency then
    Metrics.add
      (Metrics.counter (Net.metrics t.net) "tmf.recovery_chains")
      (List.length chains);
  let file_locks : (string * string, Fiber_mutex.t) Hashtbl.t =
    Hashtbl.create 32
  in
  let lock_for image =
    let key = (image.Audit_record.volume, image.Audit_record.file) in
    match Hashtbl.find_opt file_locks key with
    | Some mutex -> mutex
    | None ->
        let mutex = Fiber_mutex.create () in
        Hashtbl.replace file_locks key mutex;
        mutex
  in
  (* Chains hitting the same file must serialize their structural updates
     (the per-file mutex above), so with several workers the disk overlap
     comes from read-ahead: each worker splits its chain into small
     segments, prefetches a segment's keys with read-only descents —
     suspending on the reads, so other chains' prefetches run against the
     other mirror meanwhile — then applies the warm segment under the
     mutex. The segment size keeps [workers] in-flight windows comfortably
     inside the disc-process block cache, so a prefetched leaf is still
     resident when its image is applied even on trails much larger than the
     cache. One worker has nothing to overlap and reads nothing ahead. *)
  let read_ahead = 16 in
  let segmented records visit =
    let rec go = function
      | [] -> ()
      | records ->
          let rec split n acc = function
            | rest when n = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | record :: rest -> split (n - 1) (record :: acc) rest
          in
          let segment, rest = split read_ahead [] records in
          List.iter
            (fun record ->
              let image = record.Audit_record.image in
              match target_for t image with
              | Some target -> target.prefetch image
              | None -> ())
            segment;
          List.iter visit segment;
          go rest
    in
    if workers > 1 then go records else List.iter visit records
  in
  let apply op count record =
    let image = record.Audit_record.image in
    match target_for t image with
    | Some target ->
        Fiber_mutex.with_lock (lock_for image) (fun () -> op target image);
        incr count
    | None -> ()
  in
  (* Step 4, per chain: repeat history — reapply every post-archive image
     in audit order (winners and losers alike), so the data base reaches
     exactly the pre-crash state... *)
  let applied = ref 0 in
  Fiber.parallel_iter ~name:"rollforward-redo" ~workers
    (fun chain ->
      segmented (List.rev chain.redo_rev)
        (apply (fun target -> target.redo) applied))
    chains;
  (* Step 3 (after redo): settle every distinct transaction's verdict once,
     on the worker pool, so in-doubt disposition queries — network RPCs
     with timeouts — overlap instead of serializing the undo pass. *)
  let verdicts = Hashtbl.create 64 in
  let transids =
    let seen = Hashtbl.create 64 in
    List.concat_map
      (fun (_, pre_open, redo_records) ->
        List.filter_map
          (fun { Audit_record.transid; _ } ->
            let key = Transid.to_string transid in
            if Hashtbl.mem seen key then None
            else begin
              Hashtbl.replace seen key ();
              Some transid
            end)
          (pre_open @ redo_records))
      per_trail
  in
  Fiber.parallel_iter ~name:"rollforward-verdict" ~workers
    (fun transid -> ignore (verdict_for t ~self verdicts transid))
    transids;
  (* Step 5, per chain: ...then back the chain's losers out newest-first:
     post-archive images of transactions without a commit record, and the
     pre-archive images of transactions open at archive time. In-doubt
     transactions are conservatively backed out too — once the home node is
     reachable again, a second recovery from the same archive reinstates
     them if they committed. Loser keys are disjoint across chains, and a
     volume writes to one trail only, so no interleaving of chains can
     reorder any key's undo history. *)
  Fiber.parallel_iter ~name:"rollforward-undo" ~workers
    (fun chain ->
      let losers =
        List.filter
          (fun record ->
            is_loser (verdict_for t ~self verdicts record.Audit_record.transid))
          chain.undo_rev
      in
      segmented losers (apply (fun target -> target.undo) undone))
    chains;
  let scanned =
    List.fold_left
      (fun acc (_, pre_open, redo_records) ->
        acc + List.length pre_open + List.length redo_records)
      (List.length archive.loser_images)
      per_trail
  in
  assemble_stats verdicts ~scanned ~applied:!applied ~undone:!undone

let recover t ~self archive =
  let engine = Net.engine t.net in
  let metrics = Net.metrics t.net in
  let started = Engine.now engine in
  let stats = replay t ~self archive in
  Metrics.observe_latency metrics "tmf.recovery_ms"
    (Sim_time.diff (Engine.now engine) started);
  Metrics.add
    (Metrics.counter metrics "tmf.recovery_images_replayed")
    stats.images_applied;
  stats
