open Tandem_sim
open Tandem_disk

(* A closed or current audit file. Appends only ever go to the current
   (newest) file, so each file holds one contiguous ascending run of
   sequence numbers: [first_seq .. first_seq + Vec.length records - 1]
   ([first_seq] is meaningless while the file is empty and is reset by the
   first append). Non-empty files' runs are disjoint and descend with age,
   which makes [records_from] a per-file index computation instead of a
   full-trail filter. *)
type audit_file = {
  file_number : int;
  mutable first_seq : int;
  records : Audit_record.t Vec.t; (* ascending *)
}

type t = {
  volume : Volume.t;
  daemon : Force_daemon.t;
  trail_name : string;
  records_per_file : int;
  mutable files : audit_file list; (* newest first *)
  tx_index : (string, Audit_record.t Vec.t) Hashtbl.t;
      (* transid -> its records, ascending — the backout path *)
  mutable next_seq : int;
  mutable forced_hwm : int; (* highest sequence on disc *)
  mutable crash_epoch : int;
      (* bumped by [crash]: a force that was in flight across a crash must
         not advance the high-water mark — the records it meant to cover
         were dropped with the volatile tail. *)
  mutable bytes : int; (* running [total_bytes] *)
}

let fresh_file file_number = { file_number; first_seq = 0; records = Vec.create () }

let create volume ~name ?(records_per_file = 512) ?(force_window = 0) () =
  if records_per_file < 1 then
    invalid_arg "Audit_trail.create: records_per_file must be positive";
  {
    volume;
    daemon = Force_daemon.create ~window:force_window volume;
    trail_name = name;
    records_per_file;
    files = [ fresh_file 0 ];
    tx_index = Hashtbl.create 64;
    next_seq = 0;
    forced_hwm = -1;
    crash_epoch = 0;
    bytes = 0;
  }

let name t = t.trail_name

let current_file t =
  match t.files with
  | file :: _ -> file
  | [] -> assert false

let index_for t transid =
  match Hashtbl.find_opt t.tx_index transid with
  | Some vec -> vec
  | None ->
      let vec = Vec.create () in
      Hashtbl.replace t.tx_index transid vec;
      vec

let append t ~transid image =
  let sequence = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let record = { Audit_record.sequence; transid; image } in
  let file = current_file t in
  if Vec.is_empty file.records then file.first_seq <- sequence;
  Vec.push file.records record;
  Vec.push (index_for t transid) record;
  t.bytes <- t.bytes + Audit_record.size_bytes record;
  if Vec.length file.records >= t.records_per_file then
    t.files <- fresh_file (file.file_number + 1) :: t.files;
  sequence

let force t =
  if t.forced_hwm < t.next_seq - 1 then begin
    (* Group commit: concurrent forcers share one physical write. *)
    let epoch = t.crash_epoch in
    let target = t.next_seq - 1 in
    Force_daemon.force t.daemon;
    if t.crash_epoch = epoch then t.forced_hwm <- max t.forced_hwm target
  end

let forced_up_to t = t.forced_hwm

let next_sequence t = t.next_seq

let records_for t ~transid =
  match Hashtbl.find_opt t.tx_index transid with
  | Some vec -> Vec.to_list vec
  | None -> []

let record_count_for t ~transid =
  match Hashtbl.find_opt t.tx_index transid with
  | Some vec -> Vec.length vec
  | None -> 0

let records_from t ~sequence =
  (* Suffix slice per file: each file's run is contiguous, so the matching
     window is an index range, not a filter. Files oldest first keeps the
     result ascending. *)
  List.concat_map
    (fun file ->
      let count = Vec.length file.records in
      if count = 0 then []
      else begin
        let lo_seq = max file.first_seq sequence in
        let hi_seq = min (file.first_seq + count - 1) t.forced_hwm in
        if lo_seq > hi_seq then []
        else
          Vec.sub_list file.records ~lo:(lo_seq - file.first_seq)
            ~hi:(hi_seq - file.first_seq)
      end)
    (List.rev t.files)

let unforced_records t =
  (* The volatile tail: appended but not yet on oxide. A crash loses these,
     so an archive taken "now" must carry their images as loser candidates —
     the writes they describe are visible in a fuzzy dump, but the records
     themselves will not survive to drive the undo pass. *)
  List.concat_map
    (fun file ->
      let count = Vec.length file.records in
      if count = 0 then []
      else begin
        let lo_seq = max file.first_seq (t.forced_hwm + 1) in
        let hi_seq = file.first_seq + count - 1 in
        if lo_seq > hi_seq then []
        else
          Vec.sub_list file.records ~lo:(lo_seq - file.first_seq)
            ~hi:(hi_seq - file.first_seq)
      end)
    (List.rev t.files)

(* Remove one record from the TAIL of its transaction's index entry —
   valid whenever the removed records are, globally, the newest ones (the
   crash path). *)
let unindex_newest t record =
  let transid = record.Audit_record.transid in
  match Hashtbl.find_opt t.tx_index transid with
  | None -> ()
  | Some vec ->
      ignore (Vec.pop vec);
      if Vec.is_empty vec then Hashtbl.remove t.tx_index transid

let crash t =
  (* Drop every record above the forced high-water mark. The unforced tail
     is, by construction, the newest suffix of each file — truncate rather
     than filter, and peel the same records off the transid index tails. *)
  List.iter
    (fun file ->
      let count = Vec.length file.records in
      if count > 0 then begin
        let keep =
          if file.first_seq > t.forced_hwm then 0
          else min count (t.forced_hwm - file.first_seq + 1)
        in
        for i = keep to count - 1 do
          let record = Vec.get file.records i in
          t.bytes <- t.bytes - Audit_record.size_bytes record;
          unindex_newest t record
        done;
        Vec.truncate file.records keep
      end)
    t.files;
  t.next_seq <- t.forced_hwm + 1;
  t.crash_epoch <- t.crash_epoch + 1

let file_count t = List.length t.files

let purge_files_before t ~sequence =
  let keep, purge =
    List.partition
      (fun file ->
        match Vec.last file.records with
        | None -> true (* current, empty *)
        | Some newest -> newest.Audit_record.sequence >= sequence)
      t.files
  in
  t.files <- (if keep = [] then [ fresh_file 0 ] else keep);
  (* Purged files are strictly the oldest: every record they hold is older
     than every kept record, so per transaction they are a prefix of its
     index entry — count them and drop each entry's front once. *)
  let purged_per_tx : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun file ->
      Vec.iter
        (fun record ->
          t.bytes <- t.bytes - Audit_record.size_bytes record;
          let transid = record.Audit_record.transid in
          Hashtbl.replace purged_per_tx transid
            (1 + Option.value ~default:0 (Hashtbl.find_opt purged_per_tx transid)))
        file.records)
    purge;
  Hashtbl.iter
    (fun transid count ->
      match Hashtbl.find_opt t.tx_index transid with
      | None -> ()
      | Some vec ->
          Vec.drop_front vec count;
          if Vec.is_empty vec then Hashtbl.remove t.tx_index transid)
    purged_per_tx;
  List.length purge

let total_bytes t = t.bytes


(* Commit markers are skipped: every fast-path commit writes the same
   ($TMF, $COMMIT, "") sentinel, so an edge through it would chain every
   fast-path transaction into one component and erase the parallelism the
   edges exist to expose. Markers carry no data image — they order against
   nothing. *)
let dependency_edges t =
  let last_writer : (string * string * string, string) Hashtbl.t =
    Hashtbl.create 256
  in
  let edges = ref [] in
  List.iter
    (fun file ->
      Vec.iter
        (fun { Audit_record.sequence; transid; image } ->
          if
            sequence <= t.forced_hwm
            && not (Audit_record.is_commit_marker image)
          then begin
            let key = Audit_record.(image.volume, image.file, image.key) in
            (match Hashtbl.find_opt last_writer key with
            | Some previous when not (String.equal previous transid) ->
                edges := (previous, transid) :: !edges
            | Some _ | None -> ());
            Hashtbl.replace last_writer key transid
          end)
        file.records)
    (List.rev t.files);
  List.rev !edges
