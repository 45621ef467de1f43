module Bitvec = Bitutil.Bitvec
module Bitmat = Bitutil.Bitmat
module Metrics = Telemetry.Metrics
module Tel = Telemetry.Registry

type config = {
  k : int;
  subset_mask : int;
  tt_capacity : int;
  optimal_chain : bool;
}

let default_config ?(k = 5) () =
  {
    k;
    subset_mask = Subset.paper_eight_mask;
    tt_capacity = 16;
    optimal_chain = false;
  }

type tt_entry = { taus : Boolfun.t array; is_end : bool; count : int }

type block_encoding = { encoded : Bitmat.t; entries : tt_entry array }

let entries_needed ~k ~rows = Chain.block_count ~n:rows ~k

(* Per-domain scratch arena for the zero-alloc greedy path: the transposed
   input columns, the encoded columns, and the int-packed tau indices all
   live in three int arrays that grow to the largest block the domain has
   seen and are reused for every subsequent encode.  Each domain that
   encodes gets its own arena via DLS, so two domains may plan at once. *)
type scratch = {
  mutable s_in : int array;
  mutable s_out : int array;
  mutable s_taus : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { s_in = [||]; s_out = [||]; s_taus = [||] })

let ensure n arr = if Array.length arr >= n then arr else Array.make n 0

let build_entries config ~rows ~blocks line_taus =
  Array.init blocks (fun j ->
      let taus = line_taus j in
      let is_end = j = blocks - 1 in
      let count =
        (* Entry 0 covers the pass-through head plus k-1 more rows; later
           entries cover the rows after their overlap instruction. *)
        if j = 0 then min config.k rows
        else
          let start = j * (config.k - 1) in
          min (config.k - 1) (rows - 1 - start)
      in
      { taus; is_end; count })

let encode_block config m =
  Metrics.with_span Tel.span_encode_block @@ fun () ->
  let width = Bitmat.width m in
  let rows = Bitmat.rows m in
  Metrics.incr Tel.encode_blocks;
  Metrics.add Tel.encode_lines width;
  Metrics.observe Tel.block_bits (Metrics.log2_bucket (rows * width));
  let blocks = entries_needed ~k:config.k ~rows in
  if config.optimal_chain then begin
    (* The DP ablation keeps the original column-at-a-time path: it is not
       on the hot loop and its inner structure does not fit the arena. *)
    let per_line =
      Array.init width (fun b ->
          Chain.encode_optimal ~subset_mask:config.subset_mask ~k:config.k
            (Bitmat.column m b))
    in
    let encoded =
      Bitmat.of_columns (Array.map (fun e -> e.Chain.code) per_line)
    in
    let entries =
      build_entries config ~rows ~blocks (fun j ->
          Array.map (fun e -> e.Chain.taus.(j)) per_line)
    in
    { encoded; entries }
  end
  else begin
    (* Greedy hot path: transpose into the domain's reused arena, encode
       every line in place (zero allocation per line), then rebuild the
       matrix and TT entries from the packed results. *)
    let wpc = Bitmat.column_words ~rows in
    let s = Domain.DLS.get scratch_key in
    s.s_in <- ensure (width * wpc) s.s_in;
    s.s_out <- ensure (width * wpc) s.s_out;
    s.s_taus <- ensure (width * blocks) s.s_taus;
    Bitmat.transpose_into m s.s_in;
    for b = 0 to width - 1 do
      ignore
        (Chain.encode_greedy_into ~subset_mask:config.subset_mask ~k:config.k
           ~n:rows ~swords:s.s_in ~soff:(b * wpc) ~cwords:s.s_out
           ~coff:(b * wpc) ~taus:s.s_taus ~toff:(b * blocks) ())
    done;
    let encoded = Bitmat.of_column_words ~width ~rows s.s_out in
    let entries =
      build_entries config ~rows ~blocks (fun j ->
          Array.init width (fun b ->
              Boolfun.of_index s.s_taus.((b * blocks) + j)))
    in
    { encoded; entries }
  end

let decode_block ~k ~entries m =
  let width = Bitmat.width m in
  let columns =
    Array.init width (fun b ->
        let taus = Array.map (fun e -> e.taus.(b)) entries in
        Chain.decode { Chain.code = Bitmat.column m b; taus; k })
  in
  Bitmat.of_columns columns

type candidate = { start_index : int; body : Bitmat.t; weight : int }

type placement = {
  cand : candidate;
  encoding : block_encoding option;
  tt_base : int;
}

type plan = { config : config; placements : placement list; tt_used : int }

let plan config candidates =
  Metrics.with_span Tel.span_encode_plan @@ fun () ->
  Metrics.add Tel.plan_blocks_considered (List.length candidates);
  let hot_first =
    List.stable_sort
      (fun a b ->
        match Int.compare b.weight a.weight with
        | 0 -> Int.compare a.start_index b.start_index
        | c -> c)
      candidates
  in
  let used = ref 0 in
  let placements =
    List.map
      (fun cand ->
        let rows = Bitmat.rows cand.body in
        let avail = config.tt_capacity - !used in
        let need = if rows >= 2 then entries_needed ~k:config.k ~rows else 0 in
        let entries = min need avail in
        (* A block too long for the remaining table is covered partially:
           the E/CT delimiters stop decoding after the encoded prefix and
           the tail stays verbatim in memory. *)
        let covered_rows =
          if entries = need then rows
          else if entries < 1 then 0
          else config.k + ((entries - 1) * (config.k - 1))
        in
        if rows < 2 || cand.weight = 0 || covered_rows < 2 then begin
          Metrics.incr Tel.plan_blocks_skipped;
          { cand; encoding = None; tt_base = -1 }
        end
        else begin
          Metrics.incr Tel.plan_blocks_encoded;
          let base = !used in
          used := !used + entries;
          let body =
            if covered_rows = rows then cand.body
            else
              Bitmat.of_words ~width:(Bitmat.width cand.body)
                (Array.sub (Bitmat.words cand.body) 0 covered_rows)
          in
          { cand; encoding = Some (encode_block config body); tt_base = base }
        end)
      hot_first
  in
  let placements =
    List.stable_sort
      (fun a b -> Int.compare a.cand.start_index b.cand.start_index)
      placements
  in
  Metrics.add Tel.plan_tt_entries !used;
  { config; placements; tt_used = !used }
