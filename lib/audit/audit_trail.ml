open Tandem_disk

(* A closed or current audit file, kept as the bytes a disc file would hold.
   Record [i] is encoded at [data.[offsets.(i)]] and has sequence number
   [first_seq + i]. Appends only ever go to the current (newest) file, so
   each file holds one contiguous ascending run of sequence numbers
   ([first_seq] is meaningless while the file is empty and is reset by the
   first append). Non-empty files' runs are disjoint and descend with age,
   which makes [records_from] a per-file index computation instead of a
   full-trail filter.

   A record's encoding is six fields, each a varint or a varint length
   followed by that many bytes:
   - [back]: sequence delta to the previous record of the same transaction
     (0 for its first record) — the per-transaction chain;
   - the transid;
   - the interned (volume, file) name id;
   - the key;
   - before and after: 0 for [None], [1 + length] then the bytes for
     [Some]. *)
type audit_file = {
  file_number : int;
  mutable first_seq : int;
  mutable data : Bytes.t;
  mutable used : int; (* bytes of [data] in use *)
  mutable offsets : int array;
  mutable length : int; (* records in the file *)
}

(* One transaction's index entry. [live.(0 .. count - 1)] holds its records
   as appended, so backout of a running transaction decodes nothing; once
   the transaction is settled [live] is empty and reads walk the [back]
   chain from [last] instead. A present entry always has [count > 0], so an
   empty [live] means settled, and a settled entry stays settled. *)
type tx_entry = {
  mutable last : int; (* sequence of the newest record *)
  mutable count : int;
  mutable live : Audit_record.t array;
}

type t = {
  volume : Volume.t;
  daemon : Force_daemon.t;
  trail_name : string;
  records_per_file : int;
  mutable files : audit_file list; (* newest first *)
  tx_index : (string, tx_entry) Hashtbl.t;
  name_ids : (string * string, int) Hashtbl.t; (* (volume, file) -> id *)
  mutable names : (string * string) array; (* id -> (volume, file) *)
  mutable last_name : Audit_record.image; (* the image [last_id] names *)
  mutable last_id : int;
  mutable next_seq : int;
  mutable forced_hwm : int; (* highest sequence on disc *)
  mutable crash_epoch : int;
      (* bumped by [crash]: a force that was in flight across a crash must
         not advance the high-water mark — the records it meant to cover
         were dropped with the volatile tail. *)
}

let fresh_file file_number =
  {
    file_number;
    first_seq = 0;
    data = Bytes.create 256;
    used = 0;
    offsets = Array.make 16 0;
    length = 0;
  }

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
    name_ids = Hashtbl.create 8;
    names = [||];
    last_name = Audit_record.commit_marker_image;
    last_id = -1;
    next_seq = 0;
    forced_hwm = -1;
    crash_epoch = 0;
  }

let name t = t.trail_name

let current_file t =
  match t.files with
  | file :: _ -> file
  | [] -> assert false

(* ------------------------------------------------------------------ *)
(* Encoding *)

(* Room for [extra] more bytes. Each append reserves its whole record once,
   so the writers below store without checks. *)
let reserve file extra =
  let needed = file.used + extra in
  if needed > Bytes.length file.data then begin
    let data = Bytes.create (max needed (2 * Bytes.length file.data)) in
    Bytes.blit file.data 0 data 0 file.used;
    file.data <- data
  end

let max_varint_bytes = 9 (* 63-bit ints, 7 bits a byte *)

let rec put_varint file n =
  if n < 0x80 then begin
    Bytes.unsafe_set file.data file.used (Char.unsafe_chr n);
    file.used <- file.used + 1
  end
  else begin
    Bytes.unsafe_set file.data file.used
      (Char.unsafe_chr (n land 0x7f lor 0x80));
    file.used <- file.used + 1;
    put_varint file (n lsr 7)
  end

let put_bytes file s =
  let length = String.length s in
  Bytes.unsafe_blit_string s 0 file.data file.used length;
  file.used <- file.used + length

let put_string file s =
  put_varint file (String.length s);
  put_bytes file s

let put_side file = function
  | None -> put_varint file 0
  | Some s ->
      put_varint file (String.length s + 1);
      put_bytes file s

let side_length = function None -> 0 | Some s -> String.length s

(* A cursor over one file's bytes. *)
type reader = { bytes : Bytes.t; mutable pos : int }

let get_varint r =
  let rec get shift acc =
    let byte = Char.code (Bytes.get r.bytes r.pos) in
    r.pos <- r.pos + 1;
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte < 0x80 then acc else get (shift + 7) acc
  in
  get 0 0

let get_bytes r length =
  let s = Bytes.sub_string r.bytes r.pos length in
  r.pos <- r.pos + length;
  s

let get_string r = get_bytes r (get_varint r)

let get_side r =
  match get_varint r with 0 -> None | n -> Some (get_bytes r (n - 1))

let reader file i = { bytes = file.data; pos = file.offsets.(i) }

(* The back-link and transid of record [i]: what index maintenance needs. *)
let header file i =
  let r = reader file i in
  let back = get_varint r in
  (back, get_string r)

(* Record [i] and its back-link. *)
let decode_linked t file i =
  let r = reader file i in
  let back = get_varint r in
  let transid = get_string r in
  let volume, file_name = t.names.(get_varint r) in
  let key = get_string r in
  let before = get_side r in
  let after = get_side r in
  ( back,
    {
      Audit_record.sequence = file.first_seq + i;
      transid;
      image = { volume; file = file_name; key; before; after };
    } )

let decode t file i = snd (decode_linked t file i)

(* Records [lo .. hi] of one file, ascending, consed onto [acc]. *)
let decode_range t file ~lo ~hi acc =
  let rec collect i acc =
    if i < lo then acc else collect (i - 1) (decode t file i :: acc)
  in
  collect hi acc

(* Intern (volume, file). Consecutive appends nearly always name the same
   pair, so the previous image's strings are checked first, physically. *)
let name_id t (image : Audit_record.image) =
  if
    t.last_id >= 0
    && image.volume == t.last_name.volume
    && image.file == t.last_name.file
  then t.last_id
  else begin
    let pair = (image.volume, image.file) in
    let id =
      match Hashtbl.find_opt t.name_ids pair with
      | Some id -> id
      | None ->
          let id = Array.length t.names in
          Hashtbl.replace t.name_ids pair id;
          t.names <- Array.append t.names [| pair |];
          id
    in
    t.last_name <- image;
    t.last_id <- id;
    id
  end

(* [array] doubled, its first [n] slots kept. *)
let grow array n filler =
  let grown = Array.make (2 * n) filler in
  Array.blit array 0 grown 0 n;
  grown

(* ------------------------------------------------------------------ *)

let append t ~transid image =
  let sequence = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let record = { Audit_record.sequence; transid; image } in
  let back =
    match Hashtbl.find_opt t.tx_index transid with
    | Some entry ->
        let back = sequence - entry.last in
        let n = entry.count in
        if Array.length entry.live > 0 then begin
          if n = Array.length entry.live then
            entry.live <- grow entry.live n record;
          entry.live.(n) <- record
        end;
        entry.last <- sequence;
        entry.count <- n + 1;
        back
    | None ->
        Hashtbl.replace t.tx_index transid
          { last = sequence; count = 1; live = Array.make 8 record };
        0
  in
  let file = current_file t in
  if file.length = 0 then file.first_seq <- sequence;
  if file.length = Array.length file.offsets then
    file.offsets <- grow file.offsets file.length 0;
  file.offsets.(file.length) <- file.used;
  file.length <- file.length + 1;
  reserve file
    ((6 * max_varint_bytes) + String.length transid + String.length image.key
    + side_length image.before + side_length image.after);
  put_varint file back;
  put_string file transid;
  put_varint file (name_id t image);
  put_string file image.key;
  put_side file image.before;
  put_side file image.after;
  if file.length >= t.records_per_file then begin
    (* Closed for good: keep exactly what it holds. *)
    file.data <- Bytes.sub file.data 0 file.used;
    file.offsets <- Array.sub file.offsets 0 file.length;
    t.files <- fresh_file (file.file_number + 1) :: t.files
  end;
  sequence

let settle t ~transid =
  match Hashtbl.find_opt t.tx_index transid with
  | Some entry -> entry.live <- [||]
  | None -> ()

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

(* A settled transaction's records: follow the back-links from its newest
   record, [count] steps. Sequences descend along the chain, so the file
   cursor only moves towards older files; purged records are the chain's
   oldest, so the count stops short of them. *)
let decode_chain t entry =
  let rec walk files sequence remaining acc =
    if remaining = 0 then acc
    else
      match files with
      | [] -> assert false
      | file :: older ->
          if file.length = 0 || file.first_seq > sequence then
            walk older sequence remaining acc
          else begin
            let back, record = decode_linked t file (sequence - file.first_seq) in
            walk files (sequence - back) (remaining - 1) (record :: acc)
          end
  in
  walk t.files entry.last entry.count []

let records_for t ~transid =
  match Hashtbl.find_opt t.tx_index transid with
  | None -> []
  | Some ({ live = [||]; _ } as entry) -> decode_chain t entry
  | Some { live; count; _ } ->
      let rec collect i acc =
        if i < 0 then acc else collect (i - 1) (live.(i) :: acc)
      in
      collect (count - 1) []

let record_count_for t ~transid =
  match Hashtbl.find_opt t.tx_index transid with
  | Some entry -> entry.count
  | None -> 0

(* Every record with sequence in [lo_seq .. hi_seq], ascending: files are
   folded newest first and each one's range is consed in front. Each file's
   run is contiguous, so the matching window is an index range, not a
   filter. *)
let records_between t ~lo_seq ~hi_seq =
  List.fold_left
    (fun acc file ->
      if file.length = 0 then acc
      else
        let lo = max file.first_seq lo_seq - file.first_seq in
        let hi = min (file.first_seq + file.length - 1) hi_seq - file.first_seq in
        decode_range t file ~lo ~hi acc)
    [] t.files

let records_from t ~sequence =
  records_between t ~lo_seq:sequence ~hi_seq:t.forced_hwm

let unforced_records t =
  (* The volatile tail: appended but not yet on oxide. A crash loses these,
     so an archive taken "now" must carry their images as loser candidates —
     the writes they describe are visible in a fuzzy dump, but the records
     themselves will not survive to drive the undo pass. *)
  records_between t ~lo_seq:(t.forced_hwm + 1) ~hi_seq:max_int

(* Remove one record from the TAIL of its transaction's chain — valid
   whenever records are removed newest first (the crash path). *)
let unindex_newest t file i =
  let back, transid = header file i in
  match Hashtbl.find_opt t.tx_index transid with
  | None -> ()
  | Some entry ->
      entry.count <- entry.count - 1;
      if entry.count = 0 then Hashtbl.remove t.tx_index transid
      else begin
        entry.last <- entry.last - back;
        (* Drop the popped record's reference; slot 0 is still in use. *)
        if Array.length entry.live > 0 then
          entry.live.(entry.count) <- entry.live.(0)
      end

let crash t =
  (* Drop every record above the forced high-water mark. The unforced tail
     is, by construction, the newest suffix of each file — truncate rather
     than filter, and peel the same records off the transaction chains,
     newest first (files are listed newest first). *)
  List.iter
    (fun file ->
      if file.length > 0 then begin
        let keep =
          if file.first_seq > t.forced_hwm then 0
          else min file.length (t.forced_hwm - file.first_seq + 1)
        in
        if keep < file.length then begin
          for i = file.length - 1 downto keep do
            unindex_newest t file i
          done;
          file.used <- file.offsets.(keep);
          file.length <- keep
        end
      end)
    t.files;
  t.next_seq <- t.forced_hwm + 1;
  t.crash_epoch <- t.crash_epoch + 1

let file_count t = List.length t.files

let purge_files_before t ~sequence =
  let keep, purge =
    List.partition
      (fun file ->
        file.length = 0 (* current, empty *)
        || file.first_seq + file.length - 1 >= sequence)
      t.files
  in
  t.files <- (if keep = [] then [ fresh_file 0 ] else keep);
  (* Purged files are strictly the oldest: every record they hold is older
     than every kept record, so per transaction they are the oldest end of
     its chain — count them off and drop each live array's front once. *)
  let purged_per_tx : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun file ->
      for i = 0 to file.length - 1 do
        let _, transid = header file i in
        Hashtbl.replace purged_per_tx transid
          (1 + Option.value ~default:0 (Hashtbl.find_opt purged_per_tx transid))
      done)
    purge;
  Hashtbl.iter
    (fun transid purged ->
      match Hashtbl.find_opt t.tx_index transid with
      | None -> ()
      | Some entry ->
          entry.count <- entry.count - purged;
          if entry.count <= 0 then Hashtbl.remove t.tx_index transid
          else if Array.length entry.live > 0 then
            entry.live <- Array.sub entry.live purged entry.count)
    purged_per_tx;
  List.length purge

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
    (fun { Audit_record.transid; image; _ } ->
      if not (Audit_record.is_commit_marker image) then begin
        let key = Audit_record.(image.volume, image.file, image.key) in
        (match Hashtbl.find_opt last_writer key with
        | Some previous when not (String.equal previous transid) ->
            edges := (previous, transid) :: !edges
        | Some _ | None -> ());
        Hashtbl.replace last_writer key transid
      end)
    (records_from t ~sequence:0);
  List.rev !edges
