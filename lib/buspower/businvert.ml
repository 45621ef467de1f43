type t = {
  width : int;
  mask : int;
  mutable prev_bus : int;
  mutable prev_invert : bool;
  mutable started : bool;
  mutable total : int;
}

let create ?(width = 32) () =
  Width.check ~scheme:"businvert" width;
  {
    width;
    mask = (1 lsl width) - 1;
    prev_bus = 0;
    prev_invert = false;
    started = false;
    total = 0;
  }

let encode t word =
  if word < 0 || word land lnot t.mask <> 0 then
    invalid_arg "Businvert.encode: word wider than bus";
  let flips = Bitutil.Popcount.count32 (word lxor t.prev_bus) in
  let invert = 2 * flips > t.width in
  let bus = if invert then lnot word land t.mask else word in
  if t.started then begin
    t.total <- t.total + Bitutil.Popcount.count32 (bus lxor t.prev_bus);
    if invert <> t.prev_invert then t.total <- t.total + 1
  end;
  t.prev_bus <- bus;
  t.prev_invert <- invert;
  t.started <- true;
  (bus, invert)

let decode ~width (bus, invert) =
  let mask = (1 lsl width) - 1 in
  if invert then lnot bus land mask else bus

let transitions t = t.total

let history t =
  t.prev_bus
  lor (Bool.to_int t.prev_invert lsl t.width)
  lor (Bool.to_int t.started lsl (t.width + 1))

let resume t h =
  t.prev_bus <- h land t.mask;
  t.prev_invert <- (h lsr t.width) land 1 = 1;
  t.started <- (h lsr (t.width + 1)) land 1 = 1;
  t.total <- 0

let reset t =
  t.prev_bus <- 0;
  t.prev_invert <- false;
  t.started <- false;
  t.total <- 0

let count_stream ?width words =
  let t = create ?width () in
  Array.iter (fun w -> ignore (encode t w)) words;
  t.total
