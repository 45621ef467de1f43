let ballcode_max_width = 12

let check_word ~scheme ~mask w =
  if w < 0 || w land lnot mask <> 0 then
    invalid_arg (Printf.sprintf "Backends.%s: word wider than bus" scheme)

(* Every built-in except TT is word-at-a-time: one codeword in, one out,
   nothing buffered.  [flush] is therefore always empty. *)

module Identity : Encoder.S = struct
  let scheme = "identity"
  let min_width = Width.min_width
  let max_width = Width.max_width
  let aux_width ~width:_ = 0

  let cost ~width:_ =
    { Encoder.extra_lines = 0; table_bits = 0; gates = 0; reads_per_fetch = 0;
      latency_words = 0 }

  type encoder = { mask : int }

  let encoder ~width =
    Width.check ~scheme width;
    { mask = Width.mask width }

  let encode e w =
    check_word ~scheme ~mask:e.mask w;
    [ { Encoder.data = w; aux = 0 } ]

  let flush _ = []
  let reset _ = ()

  type decoder = unit

  let decoder ~width =
    Width.check ~scheme width;
    ()

  let decode () (cw : Encoder.codeword) = [ cw.data ]
  let flush_decoder () = []
  let reset_decoder () = ()
end

module Businvert_backend : Encoder.S = struct
  let scheme = "businvert"
  let min_width = Width.min_width
  let max_width = Width.max_width
  let aux_width ~width:_ = 1

  let cost ~width =
    (* majority vote over [width] XORs plus an inverter per line *)
    { Encoder.extra_lines = 1; table_bits = 0; gates = 3 * width;
      reads_per_fetch = 0; latency_words = 0 }

  type encoder = Businvert.t

  let encoder ~width = Businvert.create ~width ()

  let encode t w =
    let bus, invert = Businvert.encode t w in
    [ { Encoder.data = bus; aux = Bool.to_int invert } ]

  (* nothing buffered, but flush must leave the encoder as new *)
  let flush t =
    Businvert.reset t;
    []

  let reset = Businvert.reset

  type decoder = int (* width *)

  let decoder ~width =
    Width.check ~scheme width;
    width

  let decode width (cw : Encoder.codeword) =
    [ Businvert.decode ~width (cw.data, cw.aux <> 0) ]

  let flush_decoder _ = []
  let reset_decoder _ = ()
end

module T0_backend : Encoder.S = struct
  let scheme = "t0"
  let min_width = Width.min_width
  let max_width = Width.max_width
  let aux_width ~width:_ = 1

  let cost ~width =
    (* an incrementer ([width] full adders) at each end plus the INC line *)
    { Encoder.extra_lines = 1; table_bits = 2 * width; gates = 10 * width;
      reads_per_fetch = 0; latency_words = 0 }

  type encoder = T0.t

  let encoder ~width = T0.create ~width ~stride:1 ()

  let encode t addr =
    let bus, inc = T0.encode t addr in
    [ { Encoder.data = bus; aux = Bool.to_int inc } ]

  (* nothing buffered, but flush must leave the encoder as new *)
  let flush t =
    T0.reset t;
    []

  let reset = T0.reset

  type decoder = { mutable prev_addr : int; mutable started : bool }

  let decoder ~width =
    Width.check ~scheme width;
    { prev_addr = 0; started = false }

  let decode d (cw : Encoder.codeword) =
    let addr =
      if cw.aux <> 0 && d.started then d.prev_addr + 1 else cw.data
    in
    d.prev_addr <- addr;
    d.started <- true;
    [ addr ]

  let flush_decoder _ = []

  let reset_decoder d =
    d.prev_addr <- 0;
    d.started <- false
end

module Gray_backend : Encoder.S = struct
  let scheme = "gray"
  let min_width = Width.min_width
  let max_width = Width.max_width
  let aux_width ~width:_ = 0

  let cost ~width =
    (* one XOR per line at each end *)
    { Encoder.extra_lines = 0; table_bits = 0; gates = 2 * width;
      reads_per_fetch = 0; latency_words = 0 }

  type encoder = { mask : int }

  let encoder ~width =
    Width.check ~scheme width;
    { mask = Width.mask width }

  let encode e w =
    check_word ~scheme ~mask:e.mask w;
    [ { Encoder.data = Gray.encode w; aux = 0 } ]

  let flush _ = []
  let reset _ = ()

  type decoder = unit

  let decoder ~width =
    Width.check ~scheme width;
    ()

  let decode () (cw : Encoder.codeword) = [ Gray.decode cw.data ]
  let flush_decoder () = []
  let reset_decoder () = ()
end

module Lowweight : Encoder.S = struct
  let scheme = "lowweight"
  let min_width = Width.min_width
  let max_width = Width.max_width
  let aux_width ~width:_ = 1

  let cost ~width =
    (* population-count tree plus an inverter per line, one flag line *)
    { Encoder.extra_lines = 1; table_bits = 0; gates = 3 * width;
      reads_per_fetch = 0; latency_words = 0 }

  type encoder = { width : int; mask : int }

  let encoder ~width =
    Width.check ~scheme width;
    { width; mask = Width.mask width }

  (* Complement-flag construction: every codeword has weight at most
     ceil(width/2), the memoryless low-weight bound with one extra line. *)
  let encode e w =
    check_word ~scheme ~mask:e.mask w;
    if 2 * Bitutil.Popcount.count32 w > e.width then
      [ { Encoder.data = lnot w land e.mask; aux = 1 } ]
    else [ { Encoder.data = w; aux = 0 } ]

  let flush _ = []
  let reset _ = ()

  type decoder = { dmask : int }

  let decoder ~width =
    Width.check ~scheme width;
    { dmask = Width.mask width }

  let decode d (cw : Encoder.codeword) =
    [ (if cw.aux <> 0 then lnot cw.data land d.dmask else cw.data) ]

  let flush_decoder _ = []
  let reset_decoder _ = ()
end

module Ballcode : Encoder.S = struct
  let scheme = "ballcode"
  let min_width = Width.min_width
  let max_width = ballcode_max_width
  let aux_width ~width:_ = 1

  let cost ~width =
    (* encode ROM: 2^w entries of w+1 bits; decode ROM: 2^(w+1) of w *)
    { Encoder.extra_lines = 1;
      table_bits = ((1 lsl width) * (width + 1)) + ((1 lsl (width + 1)) * width);
      gates = 0; reads_per_fetch = 1; latency_words = 0 }

  (* The image set is the 2^w lowest-weight vectors of {0,1}^(w+1),
     ties broken by value — a Hamming ball around 0.  Tables are shared
     across encoders of the same width; the memo is mutex-guarded so
     parallel differential runs can build them concurrently. *)
  let tables : (int, int array * int array) Hashtbl.t = Hashtbl.create 8
  let tables_mutex = Mutex.create ()

  let build width =
    let n = 1 lsl width in
    let all = Array.init (2 * n) (fun i -> i) in
    Array.sort
      (fun a b ->
        let c =
          compare (Bitutil.Popcount.count32 a) (Bitutil.Popcount.count32 b)
        in
        if c <> 0 then c else compare a b)
      all;
    let enc = Array.sub all 0 n in
    let dec = Array.make (2 * n) (-1) in
    Array.iteri (fun source image -> dec.(image) <- source) enc;
    (enc, dec)

  let get_tables width =
    Mutex.lock tables_mutex;
    let t =
      match Hashtbl.find_opt tables width with
      | Some t -> t
      | None ->
          let t = build width in
          Hashtbl.add tables width t;
          t
    in
    Mutex.unlock tables_mutex;
    t

  type encoder = { width : int; mask : int; enc : int array }

  let encoder ~width =
    Width.check_range ~scheme ~lo:min_width ~hi:max_width width;
    let enc, _ = get_tables width in
    { width; mask = Width.mask width; enc }

  let encode e w =
    check_word ~scheme ~mask:e.mask w;
    let image = e.enc.(w) in
    [ { Encoder.data = image land e.mask; aux = image lsr e.width } ]

  let flush _ = []
  let reset _ = ()

  type decoder = { dwidth : int; dec : int array }

  let decoder ~width =
    Width.check_range ~scheme ~lo:min_width ~hi:max_width width;
    let _, dec = get_tables width in
    { dwidth = width; dec }

  let decode d (cw : Encoder.codeword) =
    let image = cw.data lor (cw.aux lsl d.dwidth) in
    let source = d.dec.(image) in
    if source < 0 then invalid_arg "Backends.ballcode: not a codeword";
    [ source ]

  let flush_decoder _ = []
  let reset_decoder _ = ()
end

let registered = ref false
let ensure_mutex = Mutex.create ()

let ensure () =
  Mutex.lock ensure_mutex;
  if not !registered then begin
    Encoder.register (module Identity);
    Encoder.register (module Businvert_backend);
    Encoder.register (module T0_backend);
    Encoder.register (module Gray_backend);
    Encoder.register (module Lowweight);
    Encoder.register (module Ballcode);
    registered := true
  end;
  Mutex.unlock ensure_mutex
