type t = {
  labels : string array;
  block_of_pc : int -> int;
  block_starts : int array;
  line_baseline : int array;
  line_encoded : int array array;
  block_baseline : int array;
  block_encoded : int array array;
  mutable prev_base : int;
  mutable primed : bool;
  prev_enc : int array;
  mutable fetches : int;
}

type summary = {
  labels : string array;
  fetches : int;
  line_baseline : int array;
  line_encoded : int array array;
  total_baseline : int;
  total_encoded : int array;
  block_starts : int array;
  block_baseline : int array;
  block_encoded : int array array;
}

let create ~labels ~block_starts ~block_of_pc =
  let n = Array.length labels in
  let nb = Array.length block_starts in
  {
    labels = Array.copy labels;
    block_of_pc;
    block_starts = Array.copy block_starts;
    line_baseline = Array.make 32 0;
    line_encoded = Array.init n (fun _ -> Array.make 32 0);
    block_baseline = Array.make nb 0;
    block_encoded = Array.init n (fun _ -> Array.make nb 0);
    prev_base = 0;
    primed = false;
    prev_enc = Array.make n 0;
    fetches = 0;
  }

let account ~count ~lines ~blocks ~blk ~prev ~cur =
  let d = prev lxor cur in
  if d <> 0 then begin
    for bit = 0 to 31 do
      if (d lsr bit) land 1 = 1 then lines.(bit) <- lines.(bit) + count
    done;
    if blk >= 0 && blk < Array.length blocks then
      blocks.(blk) <- blocks.(blk) + (count * Bitutil.Popcount.count32 d)
  end

(* [count] fetches of [pc], each right after a fetch that drove [src_base]
   and [src_enc]; with [primed = false] they have no predecessor. *)
let edge (t : t) ~count ~primed ~src_base ~src_enc ~pc ~baseline ~encoded =
  let n = Array.length t.labels in
  if Array.length encoded <> n || Array.length src_enc <> n then
    invalid_arg "Trace.Attribution.record: encoded word count <> labels";
  if primed then begin
    let blk = t.block_of_pc pc in
    account ~count ~lines:t.line_baseline ~blocks:t.block_baseline ~blk
      ~prev:src_base ~cur:baseline;
    for i = 0 to n - 1 do
      account ~count ~lines:t.line_encoded.(i) ~blocks:t.block_encoded.(i) ~blk
        ~prev:src_enc.(i) ~cur:encoded.(i)
    done
  end;
  t.fetches <- t.fetches + count

let record_edge t ~count ~src ~pc ~baseline ~encoded =
  match src with
  | None ->
      edge t ~count ~primed:false ~src_base:0 ~src_enc:encoded ~pc ~baseline
        ~encoded
  | Some (src_base, src_enc) ->
      edge t ~count ~primed:true ~src_base ~src_enc ~pc ~baseline ~encoded

let record (t : t) ~pc ~baseline ~encoded =
  edge t ~count:1 ~primed:t.primed ~src_base:t.prev_base ~src_enc:t.prev_enc
    ~pc ~baseline ~encoded;
  Array.blit encoded 0 t.prev_enc 0 (Array.length encoded);
  t.prev_base <- baseline;
  t.primed <- true

let sum = Array.fold_left ( + ) 0

let summarize (t : t) =
  {
    labels = Array.copy t.labels;
    fetches = t.fetches;
    line_baseline = Array.copy t.line_baseline;
    line_encoded = Array.map Array.copy t.line_encoded;
    total_baseline = sum t.line_baseline;
    total_encoded = Array.map sum t.line_encoded;
    block_starts = Array.copy t.block_starts;
    block_baseline = Array.copy t.block_baseline;
    block_encoded = Array.map Array.copy t.block_encoded;
  }

let pp_text ?(max_blocks = 16) fmt (s : summary) =
  let n = Array.length s.labels in
  let open Format in
  fprintf fmt "@[<v>";
  fprintf fmt "per-bitline bus transitions (%d fetches)@," s.fetches;
  fprintf fmt "%6s %12s" "line" "baseline";
  Array.iter (fun l -> fprintf fmt " %12s" l) s.labels;
  fprintf fmt "@,";
  for line = 0 to 31 do
    fprintf fmt "%6d %12d" line s.line_baseline.(line);
    for i = 0 to n - 1 do
      fprintf fmt " %12d" s.line_encoded.(i).(line)
    done;
    fprintf fmt "@,"
  done;
  fprintf fmt "%6s %12d" "total" s.total_baseline;
  Array.iter (fun t -> fprintf fmt " %12d" t) s.total_encoded;
  fprintf fmt "@,";
  fprintf fmt "%6s %12s" "" "";
  Array.iter
    (fun t ->
      let pct =
        if s.total_baseline = 0 then 0.
        else
          100.
          *. (float_of_int (s.total_baseline - t) /. float_of_int s.total_baseline)
      in
      fprintf fmt " %11.2f%%" pct)
    s.total_encoded;
  fprintf fmt "  (saved)@,";
  let nb = Array.length s.block_starts in
  if nb > 0 then begin
    fprintf fmt "@,per-block bus transitions (largest first)@,";
    fprintf fmt "%6s %10s %12s" "block" "start" "baseline";
    Array.iter (fun l -> fprintf fmt " %12s" l) s.labels;
    fprintf fmt "@,";
    let order = Array.init nb (fun b -> b) in
    Array.sort
      (fun a b -> compare (s.block_baseline.(b), a) (s.block_baseline.(a), b))
      order;
    let shown = min nb max_blocks in
    for r = 0 to shown - 1 do
      let b = order.(r) in
      fprintf fmt "%6d %10d %12d" b s.block_starts.(b) s.block_baseline.(b);
      for i = 0 to n - 1 do
        fprintf fmt " %12d" s.block_encoded.(i).(b)
      done;
      fprintf fmt "@,"
    done;
    if nb > shown then fprintf fmt "  ... %d more blocks@," (nb - shown)
  end;
  fprintf fmt "@]"

let to_json ?name (s : summary) =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  p "{";
  (match name with Some n -> p "\"name\": \"%s\", " (Jsonu.escape n) | None -> ());
  p "\"fetches\": %d, \"labels\": [" s.fetches;
  Array.iteri
    (fun i l -> p "%s\"%s\"" (if i > 0 then ", " else "") (Jsonu.escape l))
    s.labels;
  p "], \"totals\": {\"baseline\": %d" s.total_baseline;
  Array.iteri
    (fun i l -> p ", \"%s\": %d" (Jsonu.escape l) s.total_encoded.(i))
    s.labels;
  p "}, \"per_line\": [";
  for line = 0 to 31 do
    if line > 0 then p ", ";
    p "{\"line\": %d, \"baseline\": %d" line s.line_baseline.(line);
    Array.iteri
      (fun i l -> p ", \"%s\": %d" (Jsonu.escape l) s.line_encoded.(i).(line))
      s.labels;
    p "}"
  done;
  p "], \"per_block\": [";
  Array.iteri
    (fun blk start ->
      if blk > 0 then p ", ";
      p "{\"block\": %d, \"start_pc\": %d, \"baseline\": %d" blk start
        s.block_baseline.(blk);
      Array.iteri
        (fun i l -> p ", \"%s\": %d" (Jsonu.escape l) s.block_encoded.(i).(blk))
        s.labels;
      p "}")
    s.block_starts;
  p "]}";
  Buffer.contents b
