(* The plug-in runtime's public face: the source catalog (entries and
   first touch), the scans over its views, and the shard sets derived
   from its entries. The catalog's type is parameterized by the shard
   state it carries; the registry fixes it. *)

include (
  Source_catalog :
    module type of struct
      include Source_catalog
    end
    with type 'shards t := 'shards Source_catalog.t)

include Scans
include Shard_sets
