(* Equivalence properties for the indexed hot paths.

   The audit trail, the lock table, the block cache and the block store were
   re-backed by indexes (per-transid record vectors, per-owner lock sets,
   per-file waiter queues, block-numbered arrays) purely for complexity;
   observable behaviour must not move. Each property drives the real
   structure and a naive specification model (for the cache and the store,
   the hashtable code they replaced) through the same random operation
   sequence and compares every observation. Unit tests pin the fast paths
   those indexes exist for, and a last test pins the parallel phase-one
   default: concurrent prepares must yield the very dispositions serial
   prepares do. *)

open Tandem_sim
open Tandem_audit
open Tandem_encompass

(* ------------------------------------------------------------------ *)
(* Audit trail vs naive list-backed model *)

module Trail_model = struct
  type t = {
    mutable files : Audit_record.t list list; (* oldest first, ascending *)
    mutable next_seq : int;
    mutable forced : int;
    records_per_file : int;
  }

  let create ~records_per_file =
    { files = [ [] ]; next_seq = 0; forced = -1; records_per_file }

  let rec replace_last files file =
    match files with
    | [] -> assert false
    | [ _ ] -> [ file ]
    | f :: rest -> f :: replace_last rest file

  let current t = List.nth t.files (List.length t.files - 1)

  let append t ~transid image =
    let sequence = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    let record = { Audit_record.sequence; transid; image } in
    let file = current t @ [ record ] in
    t.files <- replace_last t.files file;
    if List.length file >= t.records_per_file then t.files <- t.files @ [ [] ];
    sequence

  let all t = List.concat t.files

  let force t = t.forced <- t.next_seq - 1

  let crash t =
    t.files <-
      List.map
        (List.filter (fun r -> r.Audit_record.sequence <= t.forced))
        t.files;
    t.next_seq <- t.forced + 1

  let purge t ~sequence =
    let keep =
      List.filter
        (fun file ->
          match List.rev file with
          | [] -> true
          | newest :: _ -> newest.Audit_record.sequence >= sequence)
        t.files
    in
    t.files <- (if keep = [] then [ [] ] else keep)

  let records_for t ~transid =
    List.filter (fun r -> String.equal r.Audit_record.transid transid) (all t)

  let records_from t ~sequence =
    List.filter
      (fun r ->
        r.Audit_record.sequence >= sequence
        && r.Audit_record.sequence <= t.forced)
      (all t)

  (* Consecutive distinct writers per key over the forced records, commit
     markers skipped: each record's edge comes from the newest earlier
     forced record on its key, when another transaction wrote it. *)
  let dependency_edges t =
    let data =
      List.filter
        (fun r ->
          r.Audit_record.sequence <= t.forced
          && not (Audit_record.is_commit_marker r.Audit_record.image))
        (all t)
    in
    let key r =
      let image = r.Audit_record.image in
      (image.Audit_record.volume, image.Audit_record.file, image.Audit_record.key)
    in
    List.concat_map
      (fun r ->
        let earlier =
          List.filter
            (fun p ->
              p.Audit_record.sequence < r.Audit_record.sequence
              && key p = key r)
            data
        in
        match List.rev earlier with
        | p :: _ when p.Audit_record.transid <> r.Audit_record.transid ->
            [ (p.Audit_record.transid, r.Audit_record.transid) ]
        | _ -> [])
      data
end

type trail_op =
  | Append of int * int (* transid pool index, key pool index *)
  | Force
  | Crash
  | Purge of int (* scaled into the live sequence range *)
  | Settle of int (* transid pool index *)

let trail_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun i k -> Append (i, k)) (int_bound 3) (int_bound 3));
        (2, return Force);
        (1, return Crash);
        (1, map (fun s -> Purge s) (int_bound 100));
        (1, map (fun i -> Settle i) (int_bound 3));
      ])

let trail_op_print = function
  | Append (i, k) -> Printf.sprintf "append t%d k%d" i k
  | Force -> "force"
  | Crash -> "crash"
  | Purge s -> Printf.sprintf "purge %d%%" s
  | Settle i -> Printf.sprintf "settle t%d" i

let transid_pool = [| "1.0.0"; "1.0.1"; "2.0.0"; "2.0.1" |]

(* Three data keys, so writers collide and dependency edges form, and the
   commit marker, which must give none. *)
let trail_image k =
  if k = 3 then Audit_record.commit_marker_image
  else
    {
      Audit_record.volume = "$DATA";
      file = "F";
      key = [| "a"; "b"; "c" |].(k);
      before = None;
      after = Some "x";
    }

let record_eq a b = a = b (* immutable scalars throughout *)

let trail_agrees trail model =
  let open Audit_trail in
  next_sequence trail = model.Trail_model.next_seq
  && forced_up_to trail = model.Trail_model.forced
  && Array.for_all
       (fun transid ->
         let indexed = records_for trail ~transid in
         let naive = Trail_model.records_for model ~transid in
         record_count_for trail ~transid = List.length naive
         && List.length indexed = List.length naive
         && List.for_all2 record_eq indexed naive)
       transid_pool
  && List.for_all
       (fun sequence ->
         let indexed = records_from trail ~sequence in
         let naive = Trail_model.records_from model ~sequence in
         List.length indexed = List.length naive
         && List.for_all2 record_eq indexed naive)
       [ 0; 3; model.Trail_model.forced; model.Trail_model.next_seq - 2 ]
  && dependency_edges trail = Trail_model.dependency_edges model

(* Drive the trail and the model through [ops] in lockstep, comparing every
   observation after each op. [settle] has no model counterpart: it may only
   free memory, so the trail must agree with the model whether or not a
   transaction is settled. *)
let trail_ops_agree ops =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create engine ~metrics ~name:"$AVOL"
      ~access_time:(Sim_time.milliseconds 5)
  in
  let trail = Audit_trail.create volume ~name:"$AUDIT" ~records_per_file:3 () in
  let model = Trail_model.create ~records_per_file:3 in
  let ok = ref true in
  (* One fiber applies each op to both in lockstep ([force] suspends on
     the daemon, so the sequence needs the engine underneath it). *)
  ignore
    (Fiber.spawn (fun () ->
         List.iter
           (fun op ->
             (match op with
             | Append (i, k) ->
                 let transid = transid_pool.(i) in
                 let image = trail_image k in
                 let s1 = Audit_trail.append trail ~transid image in
                 let s2 = Trail_model.append model ~transid image in
                 if s1 <> s2 then ok := false
             | Force ->
                 Audit_trail.force trail;
                 Trail_model.force model
             | Crash ->
                 Audit_trail.crash trail;
                 Trail_model.crash model
             | Purge percent ->
                 let sequence = model.Trail_model.next_seq * percent / 100 in
                 ignore (Audit_trail.purge_files_before trail ~sequence);
                 Trail_model.purge model ~sequence
             | Settle i -> Audit_trail.settle trail ~transid:transid_pool.(i));
             if not (trail_agrees trail model) then ok := false)
           ops));
  Engine.run engine;
  !ok

let prop_trail_matches_model =
  QCheck.Test.make
    ~name:
      "indexed audit trail = naive list model \
       (append/force/crash/purge/settle)"
    ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map trail_op_print ops))
       QCheck.Gen.(list_size (1 -- 40) trail_op_gen))
    trail_ops_agree

(* One transaction's chain across three files: the oldest file purged, then
   the newest records lost to a crash. Its chain must read back the same
   with [settle] before, between or after those steps, or never. *)
let test_chain_straddles_purge_and_crash () =
  let ops =
    [
      Append (0, 0); Append (1, 1); Append (0, 2); Force;
      Append (0, 0); Append (2, 1); Append (0, 1); Force;
      Purge 50 (* sequence 3: the first file goes *);
      Append (0, 2); Append (0, 3); Crash;
      Append (0, 1); Force;
    ]
  in
  let settle_at k =
    List.concat (List.mapi (fun i op -> if i = k then [ Settle 0; op ] else [ op ]) ops)
  in
  List.iter
    (fun k ->
      if not (trail_ops_agree (settle_at k)) then
        Alcotest.failf "trail differs from the model with settle at op %d" k)
    (List.init (List.length ops + 1) Fun.id)

(* The encoding round-trips every field: empty strings, NUL bytes, [None]
   and [Some] on both sides, fields long enough for multi-byte varint
   lengths, and more than 127 interned (volume, file) names, so name ids
   take two bytes too. Records are read back decoded, from the unforced
   tail and from settled chains, across random rollover sizes. *)
let field_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return "");
        (2, return "\000");
        (1, string_size ~gen:char (0 -- 3) >|= fun s -> s ^ "\000" ^ s);
        (4, string_size ~gen:printable (1 -- 12));
        (2, string_size ~gen:char (128 -- 300));
      ])

let name_pool = Array.init 200 (fun i -> (Printf.sprintf "$V%d" i, if i mod 2 = 0 then "F" else ""))

let image_of (name, key, before, after) =
  let volume, file = name_pool.(name) in
  { Audit_record.volume; file; key; before; after }

let record_gen =
  QCheck.Gen.(
    pair (int_bound 5)
      (quad (int_bound 199) field_gen (opt field_gen) (opt field_gen)))

let prop_encoding_round_trips =
  QCheck.Test.make ~name:"audit record encoding round-trips every field"
    ~count:100
    (QCheck.make
       QCheck.Gen.(pair (1 -- 8) (list_size (0 -- 60) record_gen)))
    (fun (records_per_file, appends) ->
      let engine = Engine.create () in
      let volume =
        Tandem_disk.Volume.create engine ~metrics:(Metrics.create ())
          ~name:"$AVOL" ~access_time:(Sim_time.milliseconds 5)
      in
      let trail = Audit_trail.create volume ~name:"$AUDIT" ~records_per_file () in
      (* Every name once first, so ids run past 127. *)
      let preamble =
        List.init 130 (fun name -> (5, (name, "k", None, Some "v")))
      in
      let expected =
        List.mapi
          (fun sequence (i, fields) ->
            let transid = Printf.sprintf "1.0.%d" i in
            let image = image_of fields in
            ignore (Audit_trail.append trail ~transid image);
            { Audit_record.sequence; transid; image })
          (preamble @ appends)
      in
      let for_transid transid =
        List.filter (fun r -> r.Audit_record.transid = transid) expected
      in
      let transids = List.init 6 (Printf.sprintf "1.0.%d") in
      Audit_trail.unforced_records trail = expected
      && List.for_all
           (fun transid ->
             Audit_trail.settle trail ~transid;
             Audit_trail.records_for trail ~transid = for_transid transid)
           transids
      && Audit_trail.unforced_records trail = expected)

(* Retention guard: what the trail keeps per appended record once its
   transaction is settled. A record lives in its audit file's bytes and its
   transaction's chain and nowhere else; a per-key or per-append side index
   (such as a dependency log kept at append time), or a decoded copy kept
   past [settle], would show as extra words per record. *)
let test_trail_retention_per_record () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create engine ~metrics ~name:"$AVOL"
      ~access_time:(Sim_time.milliseconds 5)
  in
  let trail = Audit_trail.create volume ~name:"$AUDIT" () in
  let records = 10_000 in
  let transid i = Printf.sprintf "1.0.%d" (i / 4) in
  let words () = Obj.reachable_words (Obj.repr trail) in
  let before = words () in
  ignore
    (Fiber.spawn (fun () ->
         for i = 0 to records - 1 do
           ignore
             (Audit_trail.append trail ~transid:(transid i)
                {
                  Audit_record.volume = "$DATA";
                  file = "F";
                  key = Printf.sprintf "%012d" i;
                  before = None;
                  after = Some "x";
                })
         done;
         Audit_trail.force trail));
  Engine.run engine;
  for i = 0 to (records / 4) - 1 do
    Audit_trail.settle trail ~transid:(transid (4 * i))
  done;
  let per_record = float_of_int (words () - before) /. float_of_int records in
  (* Measured on OCaml 5.1.1: 7.23 words per record (the encoded bytes, an
     offset, a quarter of a transaction's index entry). Keeping each record
     decoded as well costs about 16 words more. *)
  let bound = 10. in
  if per_record > bound then
    Alcotest.failf "trail retains %.2f words per record (bound %.0f)"
      per_record bound

(* The same guard for the monitor trail: one table entry per disposition,
   no second copy of the history. *)
let test_monitor_retention_per_entry () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create engine ~metrics ~name:"$MVOL"
      ~access_time:(Sim_time.milliseconds 5)
  in
  let monitor = Monitor_trail.create volume in
  let entries = 2_000 in
  let words () = Obj.reachable_words (Obj.repr monitor) in
  let before = words () in
  ignore
    (Fiber.spawn (fun () ->
         for i = 0 to entries - 1 do
           Monitor_trail.record monitor
             ~transid:(Printf.sprintf "1.0.%d" i)
             (if i mod 3 = 0 then Monitor_trail.Aborted
              else Monitor_trail.Committed)
         done));
  Engine.run engine;
  let per_entry = float_of_int (words () - before) /. float_of_int entries in
  (* Measured on OCaml 5.1.1: 8.02 words per entry (the table's bucket and
     key string); a second copy of the history in a list costs 6 more. *)
  let bound = 10. in
  if per_entry > bound then
    Alcotest.failf "monitor trail retains %.2f words per entry (bound %.0f)"
      per_entry bound

(* ------------------------------------------------------------------ *)
(* Lock table vs naive model (non-blocking paths) *)

module Lock_model = struct
  type t = {
    mutable file_owners : (string * string) list; (* file -> owner *)
    mutable record_owners : ((string * string) * string) list;
        (* (file, key) -> owner *)
  }

  let create () = { file_owners = []; record_owners = [] }

  let grantable t ~owner resource =
    match resource with
    | Tandem_lock.Lock_table.Record_lock { file; key } -> (
        match List.assoc_opt file t.file_owners with
        | Some file_owner when file_owner <> owner -> false
        | _ -> (
            match List.assoc_opt (file, key) t.record_owners with
            | Some record_owner -> record_owner = owner
            | None -> true))
    | Tandem_lock.Lock_table.File_lock file ->
        (match List.assoc_opt file t.file_owners with
        | Some file_owner -> file_owner = owner
        | None -> true)
        && not
             (List.exists
                (fun ((f, _), record_owner) -> f = file && record_owner <> owner)
                t.record_owners)

  let try_acquire t ~owner resource =
    grantable t ~owner resource
    && begin
         (match resource with
         | Tandem_lock.Lock_table.Record_lock { file; key } ->
             if not (List.mem_assoc (file, key) t.record_owners) then
               t.record_owners <- ((file, key), owner) :: t.record_owners
         | Tandem_lock.Lock_table.File_lock file ->
             t.file_owners <-
               (file, owner) :: List.remove_assoc file t.file_owners);
         true
       end

  let release_all t ~owner =
    t.file_owners <- List.filter (fun (_, o) -> o <> owner) t.file_owners;
    t.record_owners <- List.filter (fun (_, o) -> o <> owner) t.record_owners

  let locked_count t =
    List.length t.file_owners + List.length t.record_owners

  let holder t resource =
    match resource with
    | Tandem_lock.Lock_table.File_lock file ->
        List.assoc_opt file t.file_owners
    | Tandem_lock.Lock_table.Record_lock { file; key } -> (
        match List.assoc_opt (file, key) t.record_owners with
        | Some _ as direct -> direct
        | None -> List.assoc_opt file t.file_owners)

  let locks_of t ~owner =
    List.filter_map
      (fun (file, o) ->
        if o = owner then Some (Tandem_lock.Lock_table.File_lock file)
        else None)
      t.file_owners
    @ List.filter_map
        (fun ((file, key), o) ->
          if o = owner then
            Some (Tandem_lock.Lock_table.Record_lock { file; key })
          else None)
        t.record_owners
end

type lock_op =
  | Acquire of int * int * int (* owner, file, key; key 0 = file lock *)
  | Release of int

let lock_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun o f k -> Acquire (o, f, k))
            (int_bound 3) (int_bound 2) (int_bound 4) );
        (2, map (fun o -> Release o) (int_bound 3));
      ])

let lock_op_print = function
  | Acquire (o, f, 0) -> Printf.sprintf "t%d file-locks F%d" o f
  | Acquire (o, f, k) -> Printf.sprintf "t%d locks F%d[k%d]" o f k
  | Release o -> Printf.sprintf "t%d releases" o

let render_resource resource =
  Format.asprintf "%a" Tandem_lock.Lock_table.pp_resource resource

let lock_table_agrees locks model =
  let open Tandem_lock.Lock_table in
  locked_count locks = Lock_model.locked_count model
  && waiting_count locks = 0
  && List.for_all
       (fun owner_index ->
         let owner = Printf.sprintf "t%d" owner_index in
         List.sort compare
           (List.map render_resource (locks_of locks ~owner))
         = List.sort compare
             (List.map render_resource (Lock_model.locks_of model ~owner)))
       [ 0; 1; 2; 3 ]

let prop_lock_table_matches_model =
  QCheck.Test.make
    ~name:"indexed lock table = naive model (try_acquire/release_all)"
    ~count:120
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map lock_op_print ops))
       QCheck.Gen.(list_size (1 -- 50) lock_op_gen))
    (fun ops ->
      let engine = Engine.create () in
      let metrics = Metrics.create () in
      let locks =
        Tandem_lock.Lock_table.create engine ~metrics ~name:"$DATA"
      in
      let model = Lock_model.create () in
      List.for_all
        (fun op ->
          (match op with
          | Acquire (owner_index, file_index, key_index) ->
              let owner = Printf.sprintf "t%d" owner_index in
              let file = Printf.sprintf "F%d" file_index in
              let resource =
                if key_index = 0 then Tandem_lock.Lock_table.File_lock file
                else
                  Tandem_lock.Lock_table.Record_lock
                    { file; key = Printf.sprintf "k%d" key_index }
              in
              Tandem_lock.Lock_table.try_acquire locks ~owner resource
              = Lock_model.try_acquire model ~owner resource
              && Tandem_lock.Lock_table.holder locks resource
                 = Lock_model.holder model resource
          | Release owner_index ->
              let owner = Printf.sprintf "t%d" owner_index in
              Tandem_lock.Lock_table.release_all locks ~owner;
              Lock_model.release_all model ~owner;
              true)
          && lock_table_agrees locks model)
        ops)

(* ------------------------------------------------------------------ *)
(* Block cache and block store vs the hashtable-backed originals *)

module Cache = Tandem_disk.Cache
module Store = Tandem_db.Store
module Block_content = Tandem_db.Block_content

(* The LRU cache as it was before blocks were addressed by number: a
   doubly-linked list threaded through a hashtable. *)
module Cache_model = struct
  type entry = {
    block : int;
    mutable dirty : bool;
    mutable prev : entry option;
    mutable next : entry option;
  }

  type t = {
    cap : int;
    table : (int, entry) Hashtbl.t;
    mutable mru : entry option;
    mutable lru : entry option;
    mutable hit_count : int;
    mutable miss_count : int;
  }

  let create ~capacity =
    {
      cap = capacity;
      table = Hashtbl.create (2 * capacity);
      mru = None;
      lru = None;
      hit_count = 0;
      miss_count = 0;
    }

  let unlink t entry =
    (match entry.prev with
    | Some p -> p.next <- entry.next
    | None -> t.mru <- entry.next);
    (match entry.next with
    | Some n -> n.prev <- entry.prev
    | None -> t.lru <- entry.prev);
    entry.prev <- None;
    entry.next <- None

  let push_front t entry =
    entry.next <- t.mru;
    entry.prev <- None;
    (match t.mru with Some m -> m.prev <- Some entry | None -> ());
    t.mru <- Some entry;
    if t.lru = None then t.lru <- Some entry

  (* [`Miss (Some (block, dirty))] names the evicted block. *)
  let touch t block =
    match Hashtbl.find_opt t.table block with
    | Some entry ->
        t.hit_count <- t.hit_count + 1;
        unlink t entry;
        push_front t entry;
        `Hit
    | None ->
        t.miss_count <- t.miss_count + 1;
        let evicted =
          if Hashtbl.length t.table >= t.cap then begin
            match t.lru with
            | Some victim ->
                unlink t victim;
                Hashtbl.remove t.table victim.block;
                Some (victim.block, victim.dirty)
            | None -> None
          end
          else None
        in
        let entry = { block; dirty = false; prev = None; next = None } in
        Hashtbl.replace t.table block entry;
        push_front t entry;
        `Miss evicted

  let mark_dirty t block =
    match Hashtbl.find_opt t.table block with
    | Some entry -> entry.dirty <- true
    | None -> invalid_arg "Cache.mark_dirty: block not resident"

  let clean t block =
    match Hashtbl.find_opt t.table block with
    | Some entry -> entry.dirty <- false
    | None -> ()

  let is_dirty t block =
    match Hashtbl.find_opt t.table block with
    | Some entry -> entry.dirty
    | None -> false

  let dirty_blocks t =
    Hashtbl.fold
      (fun block entry acc -> if entry.dirty then block :: acc else acc)
      t.table []
    |> List.sort Int.compare

  let drop t block =
    match Hashtbl.find_opt t.table block with
    | Some entry ->
        unlink t entry;
        Hashtbl.remove t.table block
    | None -> ()

  let clear t =
    Hashtbl.reset t.table;
    t.mru <- None;
    t.lru <- None

  let resident t = Hashtbl.length t.table
end

(* The block store as it was, uncharged: two hashtable images over the
   model cache. *)
module Store_model = struct
  type t = {
    cache : Cache_model.t;
    current : (int, Block_content.t) Hashtbl.t;
    mutable disk : (int, Block_content.t) Hashtbl.t;
    mutable next_block : int;
  }

  let create ~cache_capacity =
    {
      cache = Cache_model.create ~capacity:cache_capacity;
      current = Hashtbl.create 256;
      disk = Hashtbl.create 256;
      next_block = 0;
    }

  let flush_block t block =
    match Hashtbl.find_opt t.current block with
    | Some content ->
        Hashtbl.replace t.disk block content;
        Cache_model.clean t.cache block
    | None -> ()

  let handle_eviction t = function
    | Some (block, true) -> flush_block t block
    | Some (_, false) | None -> ()

  let touch_for_write t block =
    (match Cache_model.touch t.cache block with
    | `Hit -> ()
    | `Miss evicted -> handle_eviction t evicted);
    Cache_model.mark_dirty t.cache block

  let alloc t content =
    let block = t.next_block in
    t.next_block <- t.next_block + 1;
    Hashtbl.replace t.current block content;
    touch_for_write t block;
    block

  let read t block =
    if not (Hashtbl.mem t.current block) then raise Not_found;
    (match Cache_model.touch t.cache block with
    | `Hit -> ()
    | `Miss evicted -> handle_eviction t evicted);
    Hashtbl.find t.current block

  let write t block content =
    if not (Hashtbl.mem t.current block) then
      invalid_arg "Store.write: unallocated block";
    Hashtbl.replace t.current block content;
    touch_for_write t block

  let free t block =
    Hashtbl.remove t.current block;
    Hashtbl.remove t.disk block;
    Cache_model.drop t.cache block

  let flush_all t = List.iter (flush_block t) (Cache_model.dirty_blocks t.cache)

  let crash t =
    Hashtbl.reset t.current;
    Hashtbl.iter (fun block content -> Hashtbl.replace t.current block content)
      t.disk;
    Cache_model.clear t.cache

  let overwrite_disk_image t =
    t.disk <- Hashtbl.copy t.current;
    Cache_model.clear t.cache

  let block_count t = Hashtbl.length t.current

  let snapshot t =
    Hashtbl.fold (fun block content acc -> (block, content) :: acc) t.current []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  let restore t blocks =
    Hashtbl.reset t.current;
    Cache_model.clear t.cache;
    List.iter
      (fun (block, content) ->
        Hashtbl.replace t.current block content;
        t.next_block <- max t.next_block (block + 1))
      blocks
end

(* Mostly a small hot range, so hits and evictions happen, plus sparse
   block numbers up to 12,000. *)
let block_gen =
  QCheck.Gen.(frequency [ (4, int_bound 24); (1, int_bound 12_000) ])

type cache_op =
  | Touch of int
  | Mark_dirty of int
  | Clean of int
  | Drop of int
  | Clear

let cache_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun b -> Touch b) block_gen);
        (3, map (fun b -> Mark_dirty b) block_gen);
        (1, map (fun b -> Clean b) block_gen);
        (1, map (fun b -> Drop b) block_gen);
        (1, return Clear);
      ])

let cache_op_print = function
  | Touch b -> Printf.sprintf "touch %d" b
  | Mark_dirty b -> Printf.sprintf "mark_dirty %d" b
  | Clean b -> Printf.sprintf "clean %d" b
  | Drop b -> Printf.sprintf "drop %d" b
  | Clear -> "clear"

(* Runs [f], turning [Invalid_argument] into [Error ()]. *)
let outcome f =
  match f () with v -> Ok v | exception Invalid_argument _ -> Error ()

let cache_agrees cache model probes =
  Cache.resident cache = Cache_model.resident model
  && Cache.hits cache = model.Cache_model.hit_count
  && Cache.misses cache = model.Cache_model.miss_count
  && Cache.dirty_blocks cache = Cache_model.dirty_blocks model
  && List.for_all
       (fun b -> Cache.is_dirty cache b = Cache_model.is_dirty model b)
       probes

let prop_cache_matches_model =
  QCheck.Test.make ~name:"block-indexed cache = hashtable cache" ~count:300
    (QCheck.make
       ~print:(fun (capacity, ops) ->
         Printf.sprintf "capacity %d: %s" capacity
           (String.concat "; " (List.map cache_op_print ops)))
       QCheck.Gen.(pair (1 -- 8) (list_size (1 -- 120) cache_op_gen)))
    (fun (capacity, ops) ->
      let cache = Cache.create ~capacity in
      let model = Cache_model.create ~capacity in
      List.for_all
        (fun op ->
          let same_result, probe =
            match op with
            | Touch b ->
                let real =
                  match Cache.touch cache b with
                  | `Hit -> `Hit
                  | `Miss evicted ->
                      `Miss
                        (Option.map
                           (fun { Cache.block; dirty } -> (block, dirty))
                           evicted)
                in
                (real = Cache_model.touch model b, b)
            | Mark_dirty b ->
                ( outcome (fun () -> Cache.mark_dirty cache b)
                  = outcome (fun () -> Cache_model.mark_dirty model b),
                  b )
            | Clean b ->
                Cache.clean cache b;
                Cache_model.clean model b;
                (true, b)
            | Drop b ->
                Cache.drop cache b;
                Cache_model.drop model b;
                (true, b)
            | Clear ->
                Cache.clear cache;
                Cache_model.clear model;
                (true, 0)
          in
          same_result && cache_agrees cache model [ probe; probe + 1; 0 ])
        ops)

type store_op =
  | Alloc of int
  | Read of int
  | Write of int * int
  | Free of int
  | Flush_all
  | Crash
  | Overwrite_disk_image
  | Restore of (int * int) list

let store_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun v -> Alloc v) small_nat);
        (5, map (fun b -> Read b) block_gen);
        (4, map2 (fun b v -> Write (b, v)) block_gen small_nat);
        (1, map (fun b -> Free b) block_gen);
        (1, return Flush_all);
        (1, return Crash);
        (1, return Overwrite_disk_image);
        ( 1,
          map
            (fun blocks -> Restore blocks)
            (list_size (0 -- 12) (pair block_gen small_nat)) );
      ])

let store_op_print = function
  | Alloc v -> Printf.sprintf "alloc %d" v
  | Read b -> Printf.sprintf "read %d" b
  | Write (b, v) -> Printf.sprintf "write %d %d" b v
  | Free b -> Printf.sprintf "free %d" b
  | Flush_all -> "flush_all"
  | Crash -> "crash"
  | Overwrite_disk_image -> "overwrite_disk_image"
  | Restore blocks ->
      Printf.sprintf "restore [%s]"
        (String.concat "; "
           (List.map (fun (b, v) -> Printf.sprintf "%d=%d" b v) blocks))

let block_of v =
  Block_content.Relative_segment
    { base_slot = v; slots = [| Some (string_of_int v) |] }

(* Runs [f], turning [Not_found] and [Invalid_argument] into errors. *)
let store_outcome f =
  match f () with
  | v -> Ok v
  | exception Not_found -> Error "not found"
  | exception Invalid_argument _ -> Error "invalid"

let prop_store_matches_model =
  QCheck.Test.make ~name:"block-indexed store = hashtable store" ~count:300
    (QCheck.make
       ~print:(fun (capacity, ops) ->
         Printf.sprintf "cache %d: %s" capacity
           (String.concat "; " (List.map store_op_print ops)))
       QCheck.Gen.(pair (1 -- 8) (list_size (1 -- 80) store_op_gen)))
    (fun (cache_capacity, ops) ->
      let volume =
        Tandem_disk.Volume.create (Engine.create ())
          ~metrics:(Metrics.create ()) ~name:"$DATA"
          ~access_time:(Sim_time.milliseconds 25)
      in
      let store = Store.create volume ~cache_capacity in
      Store.set_charging store false;
      let model = Store_model.create ~cache_capacity in
      List.for_all
        (fun op ->
          let same_result =
            match op with
            | Alloc v ->
                Store.alloc store (block_of v)
                = Store_model.alloc model (block_of v)
            | Read b ->
                store_outcome (fun () -> Store.read store b)
                = store_outcome (fun () -> Store_model.read model b)
            | Write (b, v) ->
                store_outcome (fun () -> Store.write store b (block_of v))
                = store_outcome (fun () ->
                      Store_model.write model b (block_of v))
            | Free b ->
                Store.free store b;
                Store_model.free model b;
                true
            | Flush_all ->
                Store.flush_all store;
                Store_model.flush_all model;
                true
            | Crash ->
                Store.crash store;
                Store_model.crash model;
                true
            | Overwrite_disk_image ->
                Store.overwrite_disk_image store;
                Store_model.overwrite_disk_image model;
                true
            | Restore blocks ->
                let blocks = List.map (fun (b, v) -> (b, block_of v)) blocks in
                Store.restore store blocks;
                Store_model.restore model blocks;
                true
          in
          same_result
          && Store.block_count store = Store_model.block_count model
          && Store.snapshot store = Store_model.snapshot model
          && Store.dirty_count store
             = List.length (Cache_model.dirty_blocks model.Store_model.cache)
          && Store.cache_hits store = model.Store_model.cache.hit_count
          && Store.cache_misses store = model.Store_model.cache.miss_count)
        ops)

(* A hit is an array load and a relink: nothing to allocate. *)
let test_cache_hit_allocates_nothing () =
  let cache = Cache.create ~capacity:2 in
  ignore (Cache.touch cache 0);
  ignore (Cache.touch cache 1);
  let before = Gc.minor_words () in
  for i = 1 to 1_000 do
    (* Alternating blocks makes every hit move the least-recently-used
       entry to the front. *)
    ignore (Sys.opaque_identity (Cache.touch cache (i land 1)))
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "1,000 hits allocate nothing" 0. allocated;
  Alcotest.(check int) "all hits" 1_000 (Cache.hits cache)

let test_cache_rejects_negative_block () =
  let cache = Cache.create ~capacity:2 in
  Alcotest.check_raises "negative block"
    (Invalid_argument "Cache.touch: negative block") (fun () ->
      ignore (Cache.touch cache (-1)))

let test_key_of_int_matches_sprintf () =
  let check n =
    Alcotest.(check string)
      (Printf.sprintf "Key.of_int %d" n)
      (Printf.sprintf "%012d" n) (Tandem_db.Key.of_int n)
  in
  List.iter check
    [ 0; 9; 10; 99_999_999_999; 1_000_000_000_000; max_int; -5; min_int ];
  let rng = Random.State.make [| 15 |] in
  for i = 0 to 99_999 do
    (* Consecutive small numbers, then random ones of every width. *)
    if i < 50_000 then check i
    else check (Random.State.full_int rng max_int asr Random.State.int rng 62)
  done

(* ------------------------------------------------------------------ *)
(* Parallel phase one = serial phase one, disposition for disposition *)

let three_node_cluster ~parallel =
  let config =
    { Tandem_os.Hw_config.default with parallel_prepare = parallel }
  in
  (* Accounts 0-49 on node 1, 50-99 on node 2, 100-149 on node 3. *)
  let cluster, _spec =
    Workload.build_bank ~seed:11 ~config ~nodes:3 ~accounts:150
      ~servers:[ `Transfer 2 ] ()
  in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:2
      ~program:Workload.transfer_program ()
  in
  (cluster, tcp)

(* Transfers whose two accounts straddle nodes 2 and 3: the home node
   prepares two children, so serial and concurrent phase one genuinely
   diverge in schedule. *)
let transfers =
  [
    (60, 110, 25);
    (115, 70, 40);
    (10, 130, 15);
    (80, 120, 30);
    (125, 65, 10);
  ]

let monitor_entries cluster node =
  Monitor_trail.entries
    (Tmf.node_state (Cluster.tmf cluster) node).Tmf.Tmf_state.monitor

let run_mode ~parallel =
  let cluster, tcp = three_node_cluster ~parallel in
  List.iter
    (fun (from_account, to_account, amount) ->
      Tcp.submit tcp ~terminal:0
        (Workload.transfer_input_between ~from_account ~to_account ~amount))
    transfers;
  Cluster.run cluster;
  let balances =
    List.map
      (fun account -> Workload.account_balance cluster ~account)
      [ 10; 60; 65; 70; 80; 110; 115; 120; 125; 130 ]
  in
  (Tcp.completed tcp, List.map (monitor_entries cluster) [ 1; 2; 3 ], balances)

let test_parallel_prepare_equivalence () =
  let committed_serial, monitors_serial, balances_serial =
    run_mode ~parallel:false
  in
  let committed_parallel, monitors_parallel, balances_parallel =
    run_mode ~parallel:true
  in
  Alcotest.(check int)
    "same completions" committed_serial committed_parallel;
  Alcotest.(check int)
    "every transfer completed" (List.length transfers) committed_parallel;
  List.iteri
    (fun i (serial, parallel) ->
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "node %d dispositions identical" (i + 1))
        (List.map
           (fun (transid, d) ->
             ( transid,
               match d with
               | Monitor_trail.Committed -> "committed"
               | Monitor_trail.Aborted -> "aborted" ))
           serial)
        (List.map
           (fun (transid, d) ->
             ( transid,
               match d with
               | Monitor_trail.Committed -> "committed"
               | Monitor_trail.Aborted -> "aborted" ))
           parallel))
    (List.combine monitors_serial monitors_parallel);
  Alcotest.(check (list (option int)))
    "balances identical" balances_serial balances_parallel

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tandem_hotpath"
    [
      ( "audit index",
        qcheck [ prop_trail_matches_model; prop_encoding_round_trips ]
        @ [
            Alcotest.test_case "chain straddles purge and crash" `Quick
              test_chain_straddles_purge_and_crash;
            Alcotest.test_case "no per-key state retained" `Quick
              test_trail_retention_per_record;
            Alcotest.test_case "monitor trail keeps one table" `Quick
              test_monitor_retention_per_entry;
          ] );
      ( "lock index",
        qcheck [ prop_lock_table_matches_model ] );
      ( "block index",
        qcheck [ prop_cache_matches_model; prop_store_matches_model ]
        @ [
            Alcotest.test_case "cache hit allocates nothing" `Quick
              test_cache_hit_allocates_nothing;
            Alcotest.test_case "cache rejects a negative block" `Quick
              test_cache_rejects_negative_block;
            Alcotest.test_case "Key.of_int = sprintf %012d" `Quick
              test_key_of_int_matches_sprintf;
          ] );
      ( "parallel phase one",
        [
          Alcotest.test_case "dispositions identical to serial" `Quick
            test_parallel_prepare_equivalence;
        ] );
    ]
