#include "core/serialization.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace hpl {
namespace {

std::string EventToken(const Event& e) {
  switch (e.kind) {
    case EventKind::kSend: {
      std::string out = std::to_string(e.process) + ">" +
                        std::to_string(e.peer) + ":" +
                        std::to_string(e.message);
      if (!e.label.empty()) out += "/" + e.label;
      return out;
    }
    case EventKind::kReceive: {
      std::string out = std::to_string(e.process) + "<" +
                        std::to_string(e.peer) + ":" +
                        std::to_string(e.message);
      if (!e.label.empty()) out += "/" + e.label;
      return out;
    }
    case EventKind::kInternal:
      return std::to_string(e.process) + "." + e.label;
  }
  throw ModelError("EventToken: bad kind");
}

// Strict decimal parse of the whole of `text`: rejects empty input, signs,
// non-digits, trailing garbage and overflow (std::stoi would accept "1x" as
// 1, which is exactly the silent-garbage failure mode this file must not
// have).  `what` names the field for the error message.
template <typename Int>
Int ParseTokenNumber(std::string_view text, const char* what) {
  Int value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::result_out_of_range)
    throw ModelError(std::string(what) + " '" + std::string(text) +
                     "' is out of range");
  if (ec != std::errc{} || end != text.data() + text.size() || text.empty())
    throw ModelError(std::string(what) + " '" + std::string(text) +
                     "' is not a number");
  return value;
}

Event TokenToEvent(const std::string& token) {
  // Find the discriminating character after the leading process number.
  std::size_t i = 0;
  while (i < token.size() &&
         std::isdigit(static_cast<unsigned char>(token[i])))
    ++i;
  if (i == 0 || i == token.size())
    throw ModelError("expected <proc>('>'|'<'|'.')..., got '" + token + "'");
  const std::string_view view(token);
  const int first = ParseTokenNumber<int>(view.substr(0, i), "process");
  const char kind = token[i];
  const std::string_view rest = view.substr(i + 1);

  if (kind == '.') {
    return Internal(first, std::string(rest));
  }
  if (kind == '>' || kind == '<') {
    const auto colon = rest.find(':');
    if (colon == std::string_view::npos)
      throw ModelError("missing ':' after peer process");
    const int second = ParseTokenNumber<int>(rest.substr(0, colon), "process");
    std::string_view tail = rest.substr(colon + 1);
    std::string label;
    const auto slash = tail.find('/');
    if (slash != std::string_view::npos) {
      label = std::string(tail.substr(slash + 1));
      tail = tail.substr(0, slash);
    }
    const MessageId message = ParseTokenNumber<MessageId>(tail, "message id");
    return kind == '>' ? Send(first, second, message, label)
                       : Receive(first, second, message, label);
  }
  throw ModelError("bad event separator '" + std::string(1, kind) +
                   "' (expected '>', '<' or '.')");
}

}  // namespace

std::string FormatComputation(const Computation& x) {
  std::string out;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (i) out += " ";
    out += EventToken(x.at(i));
  }
  return out;
}

Computation ParseComputation(const std::string& text) {
  std::istringstream stream(text);
  std::vector<Event> events;
  Computation built;  // prefix validated so far
  std::string token;
  std::size_t index = 0;  // 1-based token index, for error context
  while (stream >> token) {
    ++index;
    const std::string context =
        "ParseComputation: token #" + std::to_string(index) + " '" + token +
        "': ";
    Event e;
    try {
      e = TokenToEvent(token);
    } catch (const ModelError& err) {
      throw ModelError(context + err.what());
    }
    // Validate incrementally so the error names the offending event, not
    // just "the sequence is invalid".
    std::string why;
    if (!CanExtend(built, e, &why)) throw ModelError(context + why);
    events.push_back(std::move(e));
    built = Computation::TrustedFromEvents(events);
  }
  return built;
}

// --- Binary space snapshots (hpl-space-v3) ---------------------------------

namespace {

constexpr char kSnapshotMagic[8] = {'H', 'P', 'L', 'S', 'P', 'A', 'C', 'E'};

// Counts in a snapshot beyond this are assumed corruption, not data: the
// columnar store itself caps classes at EnumerationLimits::max_classes
// (default 20M), so a multi-billion count means a garbage header — reject
// it before reserve() turns it into a bad_alloc.
constexpr std::uint64_t kMaxPlausibleCount = std::uint64_t{1} << 33;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// Column payloads move through a staging buffer of at most this many bytes,
// one chunk at a time: no save or load holds a whole column, let alone a
// whole file, in memory.
constexpr std::size_t kChunkBytes = 64 * 1024;

// Tags of the segmented columns, in file order: the v3 segment directory
// lists them in this order and error messages name them.
constexpr const char* kColumnTags[] = {"links", "canonh", "canoni", "proj",
                                       "succo", "succc", "succe"};

std::uint64_t Fold(std::uint64_t h, const unsigned char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// FNV-1a folds `n` bytes of each of K slices into that slice's checksum,
// all K chains in one loop.  The chains are independent, so they overlap;
// one chain alone is bound by the multiply latency.
template <std::size_t K>
void FoldLanes(std::uint64_t* const* sums, const unsigned char* const* slices,
               std::size_t n) {
  std::uint64_t h[K];
  for (std::size_t j = 0; j < K; ++j) h[j] = *sums[j];
  for (std::size_t i = 0; i < n; ++i) {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < K; ++j) h[j] = (h[j] ^ slices[j][i]) * kFnvPrime;
  }
  for (std::size_t j = 0; j < K; ++j) *sums[j] = h[j];
}

// FoldLanes for a run-time lane count in [1, sizeof...(K)].
template <std::size_t... K>
void FoldLockstep(std::size_t lanes, std::uint64_t* const* sums,
                  const unsigned char* const* slices, std::size_t n,
                  std::index_sequence<K...>) {
  constexpr void (*kFold[])(std::uint64_t* const*, const unsigned char* const*,
                            std::size_t) = {&FoldLanes<K + 1>...};
  kFold[lanes - 1](sums, slices, n);
}

// Explicit little-endian integer encoding.  The loops are unrolled so the
// compiler merges them into single loads and stores on little-endian hosts.
template <typename Int>
void PutLE(unsigned char* p, Int v) {
#pragma GCC unroll 8
  for (std::size_t i = 0; i < sizeof(Int); ++i)
    p[i] = static_cast<unsigned char>(static_cast<std::uint64_t>(v) >> (8 * i));
}

template <typename Int>
Int GetLE(const unsigned char* p) {
  std::uint64_t v = 0;
#pragma GCC unroll 8
  for (std::size_t i = 0; i < sizeof(Int); ++i)
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return static_cast<Int>(v);
}

// Little-endian writer over an ostream, folding an FNV-1a checksum of every
// byte it emits.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void Bytes(const void* data, std::size_t n) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
    hash_ = Fold(hash_, static_cast<const unsigned char*>(data), n);
  }
  template <typename Int>
  void Put(Int v) {
    unsigned char b[sizeof(Int)];
    PutLE(b, v);
    Bytes(b, sizeof(b));
  }
  void U8(std::uint8_t v) { Put(v); }
  void U16(std::uint16_t v) { Put(v); }
  void U32(std::uint32_t v) { Put(v); }
  void U64(std::uint64_t v) { Put(v); }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  // Emits the running checksum (not folded into itself) and ends the file.
  void Checksum() {
    unsigned char b[8];
    PutLE(b, hash_);
    out_.write(reinterpret_cast<const char*>(b), 8);
  }
  bool ok() const { return static_cast<bool>(out_); }

 private:
  std::ostream& out_;
  std::uint64_t hash_ = kFnvOffset;
};

// Little-endian reader mirroring Writer; throws ModelError with `where`
// context on truncation, and folds the same checksum for the final check.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  void Bytes(void* data, std::size_t n, const char* where) {
    Fill(data, n, where);
    hash_ = Fold(hash_, static_cast<const unsigned char*>(data), n);
  }
  template <typename Int>
  Int Get(const char* where) {
    unsigned char b[sizeof(Int)];
    Bytes(b, sizeof(b), where);
    return GetLE<Int>(b);
  }
  std::uint8_t U8(const char* where) { return Get<std::uint8_t>(where); }
  std::uint16_t U16(const char* where) { return Get<std::uint16_t>(where); }
  std::uint32_t U32(const char* where) { return Get<std::uint32_t>(where); }
  std::uint64_t U64(const char* where) { return Get<std::uint64_t>(where); }
  std::uint64_t Count(const char* where) {
    const std::uint64_t n = U64(where);
    if (n > kMaxPlausibleCount)
      throw ModelError(std::string("LoadSpaceSnapshot: implausible count ") +
                       std::to_string(n) + " (" + where + "); corrupt file?");
    return n;
  }
  std::string Str(const char* where) {
    const std::uint32_t n = U32(where);
    if (n > kMaxPlausibleCount)
      throw ModelError(std::string("LoadSpaceSnapshot: implausible string "
                                   "length (") +
                       where + "); corrupt file?");
    std::string s(n, '\0');
    Bytes(s.data(), n, where);
    return s;
  }
  // Reads the next `n` (<= kChunkBytes) payload bytes into the staging
  // buffer, reused for every column, with one istream read, and folds them
  // into the file checksum and `*column` in the same loop — two
  // independent FNV chains, so they overlap.
  const unsigned char* Chunk(std::size_t n, std::uint64_t* column,
                             const char* where) {
    Fill(stage_.data(), n, where);
    std::uint64_t* const sums[] = {&hash_, column};
    const unsigned char* const slices[] = {stage_.data(), stage_.data()};
    FoldLanes<2>(sums, slices, n);
    return stage_.data();
  }
  // Reads the trailing checksum (without folding it) and verifies it
  // matches everything read so far.
  void VerifyChecksum() {
    unsigned char b[8];
    Fill(b, 8, "checksum");
    if (GetLE<std::uint64_t>(b) != hash_)
      throw ModelError("LoadSpaceSnapshot: checksum mismatch (corrupt file)");
  }

 private:
  void Fill(void* data, std::size_t n, const char* where) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in_.gcount()) != n)
      throw ModelError(std::string("LoadSpaceSnapshot: truncated snapshot (") +
                       where + ")");
  }

  std::istream& in_;
  std::uint64_t hash_ = kFnvOffset;
  std::vector<unsigned char> stage_ = std::vector<unsigned char>(kChunkBytes);
};

// One v3 segment-directory row: a segmented column's identity and payload
// checksum, written in the header so corruption is attributed by name.
struct SegDirEntry {
  std::string tag;
  std::uint64_t elems = 0;
  std::uint32_t segments = 0;
  std::uint64_t checksum = 0;
};
// Header (everything ReadSpaceSnapshotInfo needs), after the magic: version,
// shape flags, name, the summary counts, (v2) the frontier fields, and (v3)
// the segment directory.
void WriteHeader(Writer& w, const SpaceSnapshotInfo& info,
                 const std::vector<SegDirEntry>& dir) {
  w.Bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.U32(info.version);
  w.U32(static_cast<std::uint32_t>(info.num_processes));
  w.U8(info.truncated ? 1 : 0);
  w.U8(info.canonicalize ? 1 : 0);
  w.U16(0);  // reserved
  w.Str(info.system_name);
  w.U64(info.classes);
  w.U64(info.pool_events);
  w.U64(info.group_indexes);
  if (info.version >= 2) {
    w.U8(info.frontier);
    w.U32(info.built_depth);
    w.U64(info.frontier_begin);
  }
  if (info.version >= 3) {
    w.U32(info.segment_shift);
    w.U32(static_cast<std::uint32_t>(dir.size()));
    for (const SegDirEntry& e : dir) {
      w.Str(e.tag);
      w.U64(e.elems);
      w.U32(e.segments);
      w.U64(e.checksum);
    }
  }
}

SpaceSnapshotInfo ReadHeader(Reader& r,
                             std::vector<SegDirEntry>* dir = nullptr) {
  char magic[8];
  r.Bytes(magic, sizeof(magic), "magic");
  if (std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0)
    throw ModelError("LoadSpaceSnapshot: not an hpl-space snapshot "
                     "(bad magic)");
  SpaceSnapshotInfo info;
  info.version = r.U32("version");
  if (info.version < kMinSpaceSnapshotVersion ||
      info.version > kSpaceSnapshotVersion)
    throw ModelError("LoadSpaceSnapshot: unsupported snapshot version " +
                     std::to_string(info.version) + " (this build reads " +
                     std::to_string(kMinSpaceSnapshotVersion) + " through " +
                     std::to_string(kSpaceSnapshotVersion) + ")");
  const std::uint32_t np = r.U32("num_processes");
  if (np == 0 || np > static_cast<std::uint32_t>(kMaxProcesses))
    throw ModelError("LoadSpaceSnapshot: bad process count " +
                     std::to_string(np));
  info.num_processes = static_cast<int>(np);
  info.truncated = r.U8("truncated") != 0;
  info.canonicalize = r.U8("canonicalize") != 0;
  r.U16("reserved");
  info.system_name = r.Str("system_name");
  info.classes = r.Count("classes");
  info.pool_events = r.Count("pool_events");
  info.group_indexes = r.Count("group_indexes");
  if (info.version >= 2) {
    info.frontier = r.U8("frontier state");
    if (info.frontier > 3)
      throw ModelError("LoadSpaceSnapshot: bad frontier state " +
                       std::to_string(info.frontier));
    info.built_depth = r.U32("built depth");
    info.frontier_begin = r.U64("frontier begin");
    if (info.frontier == 2 &&
        (info.frontier_begin >= info.classes))
      throw ModelError(
          "LoadSpaceSnapshot: capped snapshot with out-of-range frontier "
          "begin " +
          std::to_string(info.frontier_begin));
  }
  if (info.version >= 3) {
    info.segment_shift = r.U32("segment shift");
    const std::uint32_t ncols = r.U32("segment column count");
    if (ncols > 64)
      throw ModelError("LoadSpaceSnapshot: implausible segment column count " +
                       std::to_string(ncols) + "; corrupt file?");
    info.segment_columns = ncols;
    for (std::uint32_t i = 0; i < ncols; ++i) {
      SegDirEntry e;
      e.tag = r.Str("segment column tag");
      e.elems = r.Count("segment column elems");
      e.segments = r.U32("segment column segments");
      e.checksum = r.U64("segment column checksum");
      info.segments += e.segments;
      if (dir != nullptr) dir->push_back(e);
    }
  }
  return info;
}

void WriteEvent(Writer& w, const Event& e) {
  w.U32(static_cast<std::uint32_t>(e.process));
  w.U8(static_cast<std::uint8_t>(e.kind));
  w.U64(static_cast<std::uint64_t>(e.message));
  w.U32(static_cast<std::uint32_t>(e.peer));
  w.Str(e.label);
}

Event ReadEvent(Reader& r) {
  Event e;
  e.process = static_cast<ProcessId>(
      static_cast<std::int32_t>(r.U32("event process")));
  const std::uint8_t kind = r.U8("event kind");
  if (kind > static_cast<std::uint8_t>(EventKind::kReceive))
    throw ModelError("LoadSpaceSnapshot: bad event kind " +
                     std::to_string(kind));
  e.kind = static_cast<EventKind>(kind);
  e.message = static_cast<MessageId>(r.U64("event message"));
  e.peer =
      static_cast<ProcessId>(static_cast<std::int32_t>(r.U32("event peer")));
  e.label = r.Str("event label");
  return e;
}

}  // namespace

namespace internal {

// The one place outside ComputationSpace allowed to touch its columns.
struct SpaceSnapshotIO {
  // Shape of the builder frontier a save records / a load restores.  The
  // u8 wire values match SpaceBuilder::FrontierState.
  struct FrontierMeta {
    std::uint8_t state = 0;  // sealed
    std::uint32_t built_depth = 0;
    std::uint64_t begin = 0;
  };

  using ClassLink = ComputationSpace::ClassLink;

  // Wire form of one column row: fixed-width little-endian fields.  A class
  // link is its parent and event (u32 each), then its splice position and
  // length (u16 each); the other columns are plain u32 or u64 rows.
  template <typename T>
  static constexpr std::size_t kWireBytes =
      std::is_same_v<T, ClassLink> ? 12 : sizeof(T);

  static void Encode(const ClassLink& link, unsigned char* p) {
    PutLE(p, link.parent);
    PutLE(p + 4, link.event);
    PutLE(p + 8, link.pos);
    PutLE(p + 10, link.length);
  }
  template <typename Int>
  static void Encode(Int v, unsigned char* p) {
    PutLE(p, v);
  }
  static void Decode(const unsigned char* p, ClassLink* link) {
    link->parent = GetLE<std::uint32_t>(p);
    link->event = GetLE<std::uint32_t>(p + 4);
    link->pos = GetLE<std::uint16_t>(p + 8);
    link->length = GetLE<std::uint16_t>(p + 10);
  }
  template <typename Int>
  static void Decode(const unsigned char* p, Int* v) {
    *v = GetLE<Int>(p);
  }

  template <typename T>
  static void EncodeSlice(const T* rows, std::size_t n, unsigned char* out) {
    for (std::size_t i = 0; i < n; ++i) Encode(rows[i], out + i * kWireBytes<T>);
  }

  // Encodes a segmented column's wire form slice by slice.  Each call
  // writes the next whole rows of the current segment (at most `max_bytes`)
  // to `out` and returns the bytes written, 0 at the end.  The current
  // segment stays pinned between calls; moving to the next one releases it
  // and trims the residency budget.
  template <typename T>
  class ColumnSlicer {
   public:
    ColumnSlicer(const SegColumn<T>& column, SegmentedSpaceStore& store)
        : column_(column), store_(store) {}

    std::size_t operator()(unsigned char* out, std::size_t max_bytes) {
      if (next_ == column_.size()) {
        pin_.Release();
        return 0;
      }
      const std::size_t s = column_.SegOf(next_);
      if (base_ == nullptr || s != seg_) {
        pin_.Release();
        if (store_.out_of_core()) store_.EnforceBudget();
        base_ = column_.PinSegment(s, &pin_);
        seg_ = s;
      }
      const std::size_t rows = std::min(column_.SegmentEnd(s) - next_,
                                        max_bytes / kWireBytes<T>);
      EncodeSlice(base_ + (next_ - column_.SegmentBegin(s)), rows, out);
      next_ += rows;
      return rows * kWireBytes<T>;
    }

   private:
    const SegColumn<T>& column_;
    SegmentedSpaceStore& store_;
    SegmentPin pin_;
    const T* base_ = nullptr;
    std::size_t seg_ = 0;
    std::size_t next_ = 0;
  };

  // The v3 directory checksums of the segmented columns, in kColumnTags
  // order, folded in one lockstep pass: each round encodes the next slice
  // of every unfinished column side by side in `stage` and folds the slices
  // together, so the columns' FNV chains overlap instead of running one
  // column after another.
  static std::vector<std::uint64_t> DirectoryChecksums(
      const ComputationSpace& space, std::vector<unsigned char>& stage) {
    constexpr std::size_t kColumns = std::size(kColumnTags);
    constexpr std::size_t kSlice = kChunkBytes / kColumns;
    SegmentedSpaceStore& store = *space.store_;
    auto slicers = std::make_tuple(
        ColumnSlicer(space.links_, store), ColumnSlicer(space.canon_hash_, store),
        ColumnSlicer(space.canon_id_, store),
        ColumnSlicer(space.proj_class_, store),
        ColumnSlicer(space.succ_offsets_, store),
        ColumnSlicer(space.succ_class_, store),
        ColumnSlicer(space.succ_event_, store));
    static_assert(std::tuple_size_v<decltype(slicers)> == kColumns);
    std::vector<std::uint64_t> sums(kColumns, kFnvOffset);
    for (;;) {
      std::uint64_t* lane_sum[kColumns];
      const unsigned char* lane[kColumns];
      std::size_t lane_bytes[kColumns];
      std::size_t lanes = 0;
      std::size_t common = kSlice;
      std::size_t column = 0;
      const auto next = [&](auto& slicer) {
        unsigned char* out = stage.data() + column * kSlice;
        const std::size_t bytes = slicer(out, kSlice);
        if (bytes != 0) {
          lane_sum[lanes] = &sums[column];
          lane[lanes] = out;
          lane_bytes[lanes] = bytes;
          common = std::min(common, bytes);
          ++lanes;
        }
        ++column;
      };
      std::apply([&](auto&... slicer) { (next(slicer), ...); }, slicers);
      if (lanes == 0) break;
      FoldLockstep(lanes, lane_sum, lane, common,
                   std::make_index_sequence<kColumns>());
      for (std::size_t l = 0; l < lanes; ++l)
        *lane_sum[l] =
            Fold(*lane_sum[l], lane[l] + common, lane_bytes[l] - common);
    }
    return sums;
  }

  // Streams `n` rows of a column payload: each chunk is one read into the
  // reader's staging buffer, folded into the file and column checksums in
  // one pass, then decoded into typed rows handed to
  // `sink(rows, count, first_row)`.  Returns the column checksum.
  template <typename T, typename Sink>
  static std::uint64_t ReadRows(Reader& r, std::uint64_t n, const char* where,
                                Sink&& sink) {
    constexpr std::size_t kWire = kWireBytes<T>;
    std::vector<T> rows(
        static_cast<std::size_t>(std::min<std::uint64_t>(n, kChunkBytes / kWire)));
    std::uint64_t sum = kFnvOffset;
    for (std::uint64_t first = 0; first < n;) {
      const auto take = static_cast<std::size_t>(
          std::min<std::uint64_t>(n - first, rows.size()));
      const unsigned char* p = r.Chunk(take * kWire, &sum, where);
      T* const out = rows.data();
      for (std::size_t i = 0; i < take; ++i) Decode(p + i * kWire, out + i);
      sink(out, take, first);
      first += take;
    }
    return sum;
  }

  static void Save(const ComputationSpace& space, std::ostream& out,
                   std::uint32_t version, const FrontierMeta& frontier) {
    if (version < kMinSpaceSnapshotVersion ||
        version > kSpaceSnapshotVersion)
      throw ModelError("SaveSpaceSnapshot: unsupported snapshot version " +
                       std::to_string(version) + " (this build writes " +
                       std::to_string(kMinSpaceSnapshotVersion) +
                       " through " + std::to_string(kSpaceSnapshotVersion) +
                       ")");
    // Group indexes are built lazily under the space's mutex; collect the
    // published ones under it, then write sorted by mask so identical
    // spaces serialize byte-identically regardless of build order.
    std::vector<const ComputationSpace::GroupIndex*> groups;
    {
      std::lock_guard<std::mutex> lock(*space.group_mutex_);
      groups.reserve(space.group_index_.size());
      for (const auto& [mask, index] : space.group_index_)
        groups.push_back(index.get());
    }
    std::sort(groups.begin(), groups.end(),
              [](const auto* a, const auto* b) { return a->mask_ < b->mask_; });

    // Faulting every segment twice (once for the directory checksums, once
    // for the payload) is the price of writing the checksums in the header;
    // the slicers trim the residency budget at every segment they leave, so
    // saving an out-of-core space stays within it.
    SegmentedSpaceStore& store = *space.store_;
    const auto trim = [&store] {
      if (store.out_of_core()) store.EnforceBudget();
    };

    Writer w(out);
    SpaceSnapshotInfo info;
    info.version = version;
    info.system_name = space.system_name_;
    info.num_processes = space.num_processes_;
    info.truncated = space.truncated_;
    info.canonicalize = space.canonicalize_;
    info.classes = space.links_.size();
    info.pool_events = space.event_pool_.size();
    info.group_indexes = groups.size();
    info.frontier = frontier.state;
    info.built_depth = frontier.built_depth;
    info.frontier_begin = frontier.begin;

    std::vector<unsigned char> stage(kChunkBytes);
    std::vector<SegDirEntry> dir;
    if (version >= 3) {
      // The snapshot is a logical serialization: the directory describes the
      // columns at the format's canonical row-group granularity, NOT at the
      // in-memory store's shift, so a budget-built space and a resident build
      // of the same system save byte-identical files.
      info.segment_shift = SegmentOptions{}.segment_shift;
      const std::size_t rows_per_seg = std::size_t{1} << info.segment_shift;
      const std::vector<std::uint64_t> sums = DirectoryChecksums(space, stage);
      trim();
      const auto entry = [&](const auto& column) {
        const std::size_t segs =
            (column.rows() + rows_per_seg - 1) / rows_per_seg;
        dir.push_back(SegDirEntry{kColumnTags[dir.size()], column.size(),
                                  static_cast<std::uint32_t>(segs),
                                  sums[dir.size()]});
      };
      entry(space.links_);
      entry(space.canon_hash_);
      entry(space.canon_id_);
      entry(space.proj_class_);
      entry(space.succ_offsets_);
      entry(space.succ_class_);
      entry(space.succ_event_);
      info.segment_columns = dir.size();
      for (const SegDirEntry& e : dir) info.segments += e.segments;
    }
    WriteHeader(w, info, dir);

    unsigned char* const chunk = stage.data();
    // The links and canonical-index columns are sized by the header's class
    // count; every other column carries its own element count.
    const auto write_column = [&](const auto& column, bool counted) {
      if (counted) w.U64(column.size());
      ColumnSlicer slicer(column, store);
      while (const std::size_t n = slicer(chunk, kChunkBytes))
        w.Bytes(chunk, n);
      trim();
    };
    const auto write_vector = [&](const std::vector<std::uint32_t>& column) {
      w.U64(column.size());
      for (std::size_t i = 0; i < column.size(); i += kChunkBytes / 4) {
        const std::size_t n = std::min(column.size() - i, kChunkBytes / 4);
        EncodeSlice(column.data() + i, n, chunk);
        w.Bytes(chunk, n * 4);
      }
    };
    for (const Event& e : space.event_pool_) WriteEvent(w, e);
    write_column(space.links_, false);
    write_column(space.canon_hash_, false);
    write_column(space.canon_id_, false);
    write_column(space.proj_class_, true);
    for (int p = 0; p < space.num_processes_; ++p) {
      write_vector(space.bucket_offsets_[static_cast<std::size_t>(p)]);
      write_vector(space.bucket_ids_[static_cast<std::size_t>(p)]);
    }
    write_column(space.succ_offsets_, true);
    write_column(space.succ_class_, true);
    write_column(space.succ_event_, true);
    for (const auto* g : groups) {
      w.U64(g->mask_);
      write_vector(g->cls_);
      write_vector(g->offsets_);
      write_vector(g->ids_);
    }
    w.Checksum();
    if (!w.ok())
      throw ModelError("SaveSpaceSnapshot: write failed (stream error)");
  }

  static ComputationSpace Load(std::istream& in, const SegmentOptions& segments,
                               SpaceSnapshotInfo* info_out = nullptr) {
    Reader r(in);
    std::vector<SegDirEntry> dir;
    const SpaceSnapshotInfo info = ReadHeader(r, &dir);
    if (info_out != nullptr) *info_out = info;
    const bool has_dir = info.version >= 3;
    if (has_dir && dir.size() != std::size(kColumnTags))
      throw ModelError(
          "LoadSpaceSnapshot: bad segment directory (expected 7 columns, "
          "found " +
          std::to_string(dir.size()) + ")");

    ComputationSpace space;
    space.num_processes_ = info.num_processes;
    space.truncated_ = info.truncated;
    space.canonicalize_ = info.canonicalize;
    space.system_name_ = info.system_name;
    // Columns rebuild into the *caller's* segment geometry; the file's
    // segment_shift is informational.  v1/v2 files carry no directory and
    // skip the per-column checks below.
    space.InitColumns(segments);
    SegmentedSpaceStore& store = *space.store_;
    const auto trim = [&store] {
      if (store.out_of_core()) store.EnforceBudget();
    };

    // Reads directory column `slot` (`elems` elements) into `column`.
    // `out_of_range(row, index)` names the field of a decoded row that is
    // out of range, or returns null; whole chunks are appended, the
    // residency budget is enforced whenever a segment seals, and a v3
    // directory's count and checksum are checked.  Every failure names the
    // column.
    const auto read_column = [&](std::size_t slot, auto& column,
                                 std::uint64_t elems, auto&& out_of_range) {
      using Row = std::remove_cvref_t<decltype(column[0])>;
      const std::string tag = kColumnTags[slot];
      const std::string where = "column '" + tag + "'";
      if (has_dir) {
        const SegDirEntry& e = dir[slot];
        if (e.tag != tag)
          throw ModelError("LoadSpaceSnapshot: segment directory expects " +
                           where + " at slot " + std::to_string(slot) +
                           ", found '" + e.tag + "'");
        if (e.elems != elems)
          throw ModelError("LoadSpaceSnapshot: " + where +
                           " element count mismatch (directory says " +
                           std::to_string(e.elems) + ", payload has " +
                           std::to_string(elems) + ")");
      }
      const std::uint64_t sum = ReadRows<Row>(
          r, elems, where.c_str(),
          [&](const Row* rows, std::size_t count, std::uint64_t first) {
            for (std::size_t i = 0; i < count; ++i)
              if (const char* field = out_of_range(rows[i], first + i))
                throw ModelError("LoadSpaceSnapshot: " + where + " row " +
                                 std::to_string(first + i) +
                                 " has an out-of-range " + field);
            const std::size_t sealed = column.num_segments();
            column.Append(rows, count);
            if (column.num_segments() != sealed) trim();
          });
      if (has_dir && dir[slot].checksum != sum)
        throw ModelError("LoadSpaceSnapshot: " + where +
                         " checksum mismatch (corrupt snapshot)");
      trim();
    };
    const auto unchecked = [](const auto&, std::uint64_t) -> const char* {
      return nullptr;
    };
    const std::uint64_t classes = info.classes;
    // Resident u32 columns (buckets, group tables) hold at most one entry
    // per class plus a CSR end, which bounds the reservation.
    const auto read_vector = [&](const char* where) {
      const std::uint64_t n = r.Count(where);
      if (n > classes + 1)
        throw ModelError(std::string("LoadSpaceSnapshot: ") + where +
                         " count " + std::to_string(n) +
                         " exceeds the class count; corrupt file?");
      std::vector<std::uint32_t> column;
      column.reserve(static_cast<std::size_t>(n));
      ReadRows<std::uint32_t>(
          r, n, where,
          [&column](const std::uint32_t* rows, std::size_t count,
                    std::uint64_t) {
            column.insert(column.end(), rows, rows + count);
          });
      return column;
    };

    space.event_pool_.reserve(
        static_cast<std::size_t>(std::min<std::uint64_t>(info.pool_events,
                                                         kChunkBytes)));
    for (std::uint64_t i = 0; i < info.pool_events; ++i)
      space.event_pool_.push_back(ReadEvent(r));
    const std::size_t pool = space.event_pool_.size();

    read_column(0, space.links_, classes,
                [pool](const ClassLink& link, std::uint64_t i) -> const char* {
                  if (i > 0 && link.parent >= i) return "parent";
                  if (i > 0 && link.event >= pool) return "event";
                  return nullptr;
                });
    read_column(1, space.canon_hash_, classes, unchecked);
    read_column(2, space.canon_id_, classes,
                [classes](std::uint32_t id, std::uint64_t) -> const char* {
                  return id < classes ? nullptr : "class id";
                });
    const std::uint64_t proj_elems = r.Count("projection classes");
    if (proj_elems !=
        classes * static_cast<std::uint64_t>(info.num_processes))
      throw ModelError("LoadSpaceSnapshot: projection column size mismatch");
    read_column(3, space.proj_class_, proj_elems, unchecked);

    space.bucket_offsets_.resize(static_cast<std::size_t>(info.num_processes));
    space.bucket_ids_.resize(static_cast<std::size_t>(info.num_processes));
    for (int p = 0; p < info.num_processes; ++p) {
      auto& offsets = space.bucket_offsets_[static_cast<std::size_t>(p)];
      auto& ids = space.bucket_ids_[static_cast<std::size_t>(p)];
      offsets = read_vector("bucket offsets");
      ids = read_vector("bucket ids");
      if (offsets.empty() || offsets.back() != ids.size() ||
          ids.size() != classes)
        throw ModelError(
            "LoadSpaceSnapshot: bucket CSR columns inconsistent for process " +
            std::to_string(p));
    }

    read_column(4, space.succ_offsets_, r.Count("successor offsets"),
                unchecked);
    read_column(5, space.succ_class_, r.Count("successor classes"), unchecked);
    read_column(6, space.succ_event_, r.Count("successor events"), unchecked);
    if (space.succ_offsets_.size() != classes + (classes ? 1 : 0) ||
        (classes && space.succ_offsets_.back() != space.succ_class_.size()) ||
        space.succ_class_.size() != space.succ_event_.size())
      throw ModelError("LoadSpaceSnapshot: successor CSR columns "
                       "inconsistent");

    std::uint64_t last_mask = 0;
    for (std::uint64_t i = 0; i < info.group_indexes; ++i) {
      auto index = std::make_unique<ComputationSpace::GroupIndex>();
      index->mask_ = r.U64("group mask");
      if (i > 0 && index->mask_ <= last_mask)
        throw ModelError("LoadSpaceSnapshot: group indexes out of order");
      last_mask = index->mask_;
      index->cls_ = read_vector("group classes");
      index->offsets_ = read_vector("group offsets");
      index->ids_ = read_vector("group ids");
      if (index->cls_.size() != classes || index->offsets_.empty() ||
          index->offsets_.back() != index->ids_.size() ||
          index->ids_.size() != classes)
        throw ModelError("LoadSpaceSnapshot: group index columns "
                         "inconsistent");
      space.group_index_.emplace(index->mask_, std::move(index));
    }

    r.VerifyChecksum();

    // built_depth: stored in v2; a v1 file predates Ingest, so its classes
    // are in BFS level order and the last link's length is the depth the
    // BFS reached.
    space.built_depth_ = info.version >= 2
                             ? static_cast<int>(info.built_depth)
                             : (space.links_.empty()
                                    ? 0
                                    : static_cast<int>(space.links_.back().length));
    trim();
    return space;
  }

  // The frontier a bare ComputationSpace save records: an exhaustive space
  // is `complete` (loadable into a builder whose Deepen is a no-op), a
  // truncated one lost its frontier when the builder was torn down, so it
  // is `sealed`.
  static FrontierMeta SealedFrontier(const ComputationSpace& space) {
    FrontierMeta meta;
    meta.state = space.truncated_ ? 0 : 1;
    meta.built_depth = static_cast<std::uint32_t>(space.built_depth_);
    return meta;
  }

  static FrontierMeta BuilderFrontier(const SpaceBuilder& builder) {
    FrontierMeta meta;
    if (builder.sealed_) {
      meta.state = 0;
    } else if (builder.ingested_) {
      meta.state = 3;
    } else if (builder.complete_) {
      meta.state = 1;
    } else {
      meta.state = 2;
      meta.begin = builder.FrontierBegin();
    }
    meta.built_depth =
        static_cast<std::uint32_t>(builder.space_->built_depth_);
    return meta;
  }

  static SpaceBuilder LoadBuilder(const System& system, std::istream& in,
                                  const EnumerationLimits& limits) {
    SpaceSnapshotInfo info;
    auto space = std::unique_ptr<ComputationSpace>(
        new ComputationSpace(Load(in, limits.segments, &info)));
    if (info.system_name != system.Name() ||
        info.num_processes != system.NumProcesses())
      throw ModelError(
          "LoadSpaceBuilderSnapshot: snapshot was enumerated from system '" +
          info.system_name + "' (" + std::to_string(info.num_processes) +
          " processes), not '" + system.Name() + "' (" +
          std::to_string(system.NumProcesses()) + ")");
    SpaceBuilder builder;
    builder.AdoptSpace(std::move(space),
                       static_cast<SpaceBuilder::FrontierState>(info.frontier),
                       info.frontier_begin, &system, limits);
    return builder;
  }
};

}  // namespace internal

void SaveSpaceSnapshot(const ComputationSpace& space, std::ostream& out) {
  SaveSpaceSnapshot(space, out, kSpaceSnapshotVersion);
}

void SaveSpaceSnapshot(const ComputationSpace& space, const std::string& path) {
  SaveSpaceSnapshot(space, path, kSpaceSnapshotVersion);
}

void SaveSpaceSnapshot(const ComputationSpace& space, std::ostream& out,
                       std::uint32_t version) {
  internal::SpaceSnapshotIO::Save(
      space, out, version, internal::SpaceSnapshotIO::SealedFrontier(space));
}

void SaveSpaceSnapshot(const ComputationSpace& space, const std::string& path,
                       std::uint32_t version) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    throw ModelError("SaveSpaceSnapshot: cannot open '" + path +
                     "' for writing");
  SaveSpaceSnapshot(space, out, version);
  out.flush();
  if (!out)
    throw ModelError("SaveSpaceSnapshot: write to '" + path + "' failed");
}

void SaveSpaceBuilderSnapshot(const SpaceBuilder& builder, std::ostream& out) {
  if (!builder.has_space())
    throw ModelError("SaveSpaceBuilderSnapshot: builder holds no space");
  internal::SpaceSnapshotIO::Save(
      builder.space(), out, kSpaceSnapshotVersion,
      internal::SpaceSnapshotIO::BuilderFrontier(builder));
}

void SaveSpaceBuilderSnapshot(const SpaceBuilder& builder,
                              const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    throw ModelError("SaveSpaceBuilderSnapshot: cannot open '" + path +
                     "' for writing");
  SaveSpaceBuilderSnapshot(builder, out);
  out.flush();
  if (!out)
    throw ModelError("SaveSpaceBuilderSnapshot: write to '" + path +
                     "' failed");
}

ComputationSpace LoadSpaceSnapshot(std::istream& in) {
  return internal::SpaceSnapshotIO::Load(in, SegmentOptions{});
}

ComputationSpace LoadSpaceSnapshot(std::istream& in,
                                   const SegmentOptions& segments) {
  return internal::SpaceSnapshotIO::Load(in, segments);
}

ComputationSpace LoadSpaceSnapshot(const std::string& path) {
  return LoadSpaceSnapshot(path, SegmentOptions{});
}

ComputationSpace LoadSpaceSnapshot(const std::string& path,
                                   const SegmentOptions& segments) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw ModelError("LoadSpaceSnapshot: cannot open '" + path + "'");
  return internal::SpaceSnapshotIO::Load(in, segments);
}

SpaceBuilder LoadSpaceBuilderSnapshot(const System& system, std::istream& in,
                                      const EnumerationLimits& limits) {
  return internal::SpaceSnapshotIO::LoadBuilder(system, in, limits);
}

SpaceBuilder LoadSpaceBuilderSnapshot(const System& system,
                                      const std::string& path,
                                      const EnumerationLimits& limits) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw ModelError("LoadSpaceBuilderSnapshot: cannot open '" + path + "'");
  return internal::SpaceSnapshotIO::LoadBuilder(system, in, limits);
}

SpaceSnapshotInfo ReadSpaceSnapshotInfo(std::istream& in) {
  Reader r(in);
  return ReadHeader(r);
}

SpaceSnapshotInfo ReadSpaceSnapshotInfo(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw ModelError("ReadSpaceSnapshotInfo: cannot open '" + path + "'");
  Reader r(in);
  return ReadHeader(r);
}

}  // namespace hpl
