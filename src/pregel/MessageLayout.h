//===- pregel/MessageLayout.h - Schema-derived packed wire layouts ---------===//
///
/// \file
/// The packed wire format for messages. The translator's message-class
/// analysis (§4.3 generates a per-program message class) knows every payload
/// slot kind statically, so the runtime does not need to ship boxed Value
/// slots: a MessageLayout describes, per message type tag, the slot kinds and
/// their fixed byte offsets inside a fixed-size record, and the engine moves
/// those records through the sharded mailboxes, the combiner, and the inbox
/// as flat bytes. See docs/INTERNALS.md, "Message wire format".
///
/// Record layout: [uint32 Dst][int32 Tag — only when the layout has more
/// than one type][payload slots at fixed offsets]. All fields are stored
/// unaligned (memcpy access); the record size is the same for every type of
/// a layout (header + the largest payload), which is what makes the delivery
/// counting sort and the inbox cursor simple strided walks.
///
//===----------------------------------------------------------------------===//

#ifndef GM_PREGEL_MESSAGELAYOUT_H
#define GM_PREGEL_MESSAGELAYOUT_H

#include "graph/Graph.h"
#include "support/Value.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace gm::pregel {

/// Maximum number of scalar payload slots per message. The translator's
/// dataflow analysis never produces more than this for the paper's
/// algorithms; the IR verifier enforces the limit at compile time.
constexpr unsigned MaxMessagePayload = 4;

/// Bytes one payload slot of kind \p K occupies, both in a packed record and
/// on the simulated wire (Value::wireSize agrees).
inline unsigned slotWireSize(ValueKind K) {
  return K == ValueKind::Bool ? 1u : 8u;
}

/// Layout of one message type: its slot kinds and where each slot lives
/// inside the record.
struct MsgTypeLayout {
  bool Valid = false;
  std::vector<ValueKind> Slots;
  /// Byte offset of each slot from the start of the record.
  std::array<uint32_t, MaxMessagePayload> Offset{};
  uint32_t PayloadBytes = 0;     ///< packed payload bytes of this type
  uint32_t PayloadWireBytes = 0; ///< wire bytes of the payload (same slots)
};

/// Largest possible packed record: 8-byte header plus MaxMessagePayload
/// 8-byte slots. Senders pack into scratch of this size.
constexpr unsigned MaxPackedRecordBytes = 8 + 8 * MaxMessagePayload;

/// The wire schema of one program's messages: a (typically tiny) table of
/// MsgTypeLayout indexed by the message type tag. Every program declares
/// one; an empty layout is the schema of a program that sends nothing.
///
/// The tag is stored in records, and charged on the wire, only when the
/// layout has more than one type.
class MessageLayout {
public:
  bool empty() const { return NumTypes == 0; }
  unsigned numTypes() const { return NumTypes; }

  /// Declares message type \p Tag with payload slot kinds \p Slots.
  void addType(int32_t Tag, std::vector<ValueKind> Slots) {
    assert(Tag >= 0 && "message tags are small non-negative ints");
    assert(Slots.size() <= MaxMessagePayload && "message payload overflow");
    assert(std::all_of(Slots.begin(), Slots.end(),
                       [](ValueKind K) {
                         return K == ValueKind::Bool || K == ValueKind::Int ||
                                K == ValueKind::Double;
                       }) &&
           "message slots must have a concrete scalar kind");
    if (Tag >= static_cast<int32_t>(Types.size()))
      Types.resize(Tag + 1);
    MsgTypeLayout &T = Types[Tag];
    assert(!T.Valid && "duplicate message type tag");
    T.Valid = true;
    T.Slots = std::move(Slots);
    ++NumTypes;
    finalize();
  }

  /// Records carry an explicit tag field iff more than one type exists.
  bool storesTag() const { return NumTypes > 1; }

  /// Fixed byte size of every record of this layout.
  unsigned recordSize() const { return RecordBytes; }

  /// The only tag of a single-type layout (what recordTag returns when no
  /// tag is stored).
  int32_t soleTag() const {
    assert(NumTypes == 1 && "soleTag on a multi-type layout");
    return OnlyTag;
  }

  /// Largest declared tag; per-tag side tables are sized maxTag()+1.
  int32_t maxTag() const { return static_cast<int32_t>(Types.size()) - 1; }

  bool hasType(int32_t Tag) const {
    return Tag >= 0 && Tag < static_cast<int32_t>(Types.size()) &&
           Types[Tag].Valid;
  }

  const MsgTypeLayout &type(int32_t Tag) const {
    assert(hasType(Tag) && "message tag without a declared layout");
    return Types[Tag];
  }

  /// Simulated wire bytes of one message of \p Tag: 4-byte destination
  /// header, 4-byte tag when storesTag(), plus the payload. A per-type
  /// constant, so wire accounting never walks a payload.
  unsigned wireBytes(int32_t Tag) const {
    return 4u + (storesTag() ? 4u : 0u) + type(Tag).PayloadWireBytes;
  }

  //===--------------------------------------------------------------------===//
  // Record field access (static where layout-independent)
  //===--------------------------------------------------------------------===//

  static NodeId recordDst(const std::byte *Rec) {
    NodeId D;
    std::memcpy(&D, Rec, sizeof(NodeId));
    return D;
  }

  static void writeDst(std::byte *Rec, NodeId Dst) {
    std::memcpy(Rec, &Dst, sizeof(NodeId));
  }

  int32_t recordTag(const std::byte *Rec) const {
    if (!storesTag())
      return OnlyTag;
    int32_t T;
    std::memcpy(&T, Rec + sizeof(NodeId), sizeof(int32_t));
    return T;
  }

  void writeTag(std::byte *Rec, int32_t Tag) const {
    if (storesTag())
      std::memcpy(Rec + sizeof(NodeId), &Tag, sizeof(int32_t));
  }

private:
  /// Recomputes offsets and sizes. Adding a second type grows the header
  /// (the tag field appears), which shifts every payload offset, so the
  /// whole table is re-laid-out on each addType.
  void finalize() {
    HeaderBytes = storesTag() ? 8u : 4u;
    uint32_t MaxPayload = 0;
    for (int32_t Tag = 0; Tag < static_cast<int32_t>(Types.size()); ++Tag) {
      MsgTypeLayout &T = Types[Tag];
      if (!T.Valid)
        continue;
      OnlyTag = Tag;
      uint32_t Off = HeaderBytes, Wire = 0;
      for (size_t I = 0; I < T.Slots.size(); ++I) {
        T.Offset[I] = Off;
        Off += slotWireSize(T.Slots[I]);
        Wire += slotWireSize(T.Slots[I]);
      }
      T.PayloadBytes = Off - HeaderBytes;
      T.PayloadWireBytes = Wire;
      MaxPayload = std::max(MaxPayload, T.PayloadBytes);
    }
    RecordBytes = HeaderBytes + MaxPayload;
  }

  std::vector<MsgTypeLayout> Types; ///< indexed by tag
  unsigned NumTypes = 0;
  int32_t OnlyTag = 0; ///< the single tag of an untagged layout
  uint32_t HeaderBytes = 4;
  uint32_t RecordBytes = 4;
};

} // namespace gm::pregel

#endif // GM_PREGEL_MESSAGELAYOUT_H
