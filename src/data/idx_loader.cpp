#include "data/idx_loader.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/error.hpp"

namespace dfc::data {

namespace {

std::uint32_t read_be32(std::istream& is) {
  unsigned char b[4];
  is.read(reinterpret_cast<char*>(b), 4);
  DFC_REQUIRE(is.good(), "IDX stream truncated");
  return (std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
         (std::uint32_t{b[2]} << 8) | std::uint32_t{b[3]};
}

void write_be32(std::ostream& os, std::uint32_t v) {
  const unsigned char b[4] = {static_cast<unsigned char>(v >> 24),
                              static_cast<unsigned char>(v >> 16),
                              static_cast<unsigned char>(v >> 8),
                              static_cast<unsigned char>(v)};
  os.write(reinterpret_cast<const char*>(b), 4);
}

constexpr std::uint32_t kMagicLabels = 0x00000801;    // ubyte, 1-D
constexpr std::uint32_t kMagicImages2d = 0x00000803;  // ubyte, 3-D (N,H,W)
constexpr std::uint32_t kMagicImages3d = 0x00000804;  // ubyte, 4-D (N,C,H,W)

}  // namespace

std::vector<Tensor> load_idx_images(std::istream& is) {
  const std::uint32_t magic = read_be32(is);
  DFC_REQUIRE(magic == kMagicImages2d || magic == kMagicImages3d,
              "not an IDX image tensor (magic " + std::to_string(magic) + ")");
  const std::uint32_t n = read_be32(is);
  DFC_REQUIRE(n <= 10'000'000, "unreasonable IDX record count");

  std::int64_t c = 1;
  if (magic == kMagicImages3d) c = read_be32(is);
  const std::int64_t h = read_be32(is);
  const std::int64_t w = read_be32(is);
  // Each bound divides by the dimensions already checked, so no product of
  // header fields is formed before it is known to fit.
  constexpr std::int64_t kMaxVolume = std::int64_t{1} << 24;
  DFC_REQUIRE(c >= 1 && h >= 1 && w >= 1 && c <= kMaxVolume && h <= kMaxVolume / c &&
                  w <= kMaxVolume / (c * h),
              "unreasonable IDX image dimensions");

  // The record count is untrusted: memory grows with the records actually
  // read, never with what the header claims.
  std::vector<Tensor> out;
  const auto bytes = static_cast<std::size_t>(c * h * w);
  std::vector<unsigned char> buf(bytes);
  for (std::uint32_t i = 0; i < n; ++i) {
    is.read(reinterpret_cast<char*>(buf.data()), static_cast<std::streamsize>(bytes));
    DFC_REQUIRE(is.good(), "IDX stream truncated at record " + std::to_string(i));
    Tensor t(Shape3{c, h, w});
    auto flat = t.flat();
    for (std::size_t j = 0; j < bytes; ++j) {
      flat[j] = static_cast<float>(buf[j]) / 255.0f;
    }
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<std::int64_t> load_idx_labels(std::istream& is) {
  const std::uint32_t magic = read_be32(is);
  DFC_REQUIRE(magic == kMagicLabels,
              "not an IDX label vector (magic " + std::to_string(magic) + ")");
  const std::uint32_t n = read_be32(is);
  DFC_REQUIRE(n <= 10'000'000, "unreasonable IDX record count");
  std::vector<std::int64_t> labels;  // grows with the stream, not the header's count
  for (std::uint32_t i = 0; i < n; ++i) {
    unsigned char b = 0;
    is.read(reinterpret_cast<char*>(&b), 1);
    DFC_REQUIRE(is.good(), "IDX stream truncated at label " + std::to_string(i));
    labels.push_back(b);
  }
  return labels;
}

Dataset load_idx_dataset(const std::string& images_path, const std::string& labels_path,
                         int num_classes) {
  std::ifstream imgs(images_path, std::ios::binary);
  DFC_REQUIRE(imgs.good(), "cannot open IDX images: " + images_path);
  std::ifstream lbls(labels_path, std::ios::binary);
  DFC_REQUIRE(lbls.good(), "cannot open IDX labels: " + labels_path);

  Dataset ds;
  ds.images = load_idx_images(imgs);
  ds.labels = load_idx_labels(lbls);
  DFC_REQUIRE(ds.images.size() == ds.labels.size(),
              "IDX image/label count mismatch: " + std::to_string(ds.images.size()) + " vs " +
                  std::to_string(ds.labels.size()));
  if (num_classes > 0) {
    ds.num_classes = num_classes;
  } else {
    std::int64_t max_label = 0;
    for (auto l : ds.labels) max_label = std::max(max_label, l);
    ds.num_classes = static_cast<int>(max_label) + 1;
  }
  return ds;
}

void save_idx_images(const std::vector<Tensor>& images, std::ostream& os) {
  DFC_REQUIRE(!images.empty(), "cannot save an empty image set");
  const Shape3 s = images.front().shape();
  const bool multi_channel = s.c > 1;
  write_be32(os, multi_channel ? kMagicImages3d : kMagicImages2d);
  write_be32(os, static_cast<std::uint32_t>(images.size()));
  if (multi_channel) write_be32(os, static_cast<std::uint32_t>(s.c));
  write_be32(os, static_cast<std::uint32_t>(s.h));
  write_be32(os, static_cast<std::uint32_t>(s.w));
  for (const Tensor& t : images) {
    DFC_REQUIRE(t.shape() == s, "inconsistent image shapes in IDX save");
    for (float v : t.flat()) {
      const float clamped = std::clamp(v, 0.0f, 1.0f);
      const auto byte = static_cast<unsigned char>(clamped * 255.0f + 0.5f);
      os.write(reinterpret_cast<const char*>(&byte), 1);
    }
  }
  DFC_REQUIRE(os.good(), "IDX stream write failure");
}

void save_idx_labels(const std::vector<std::int64_t>& labels, std::ostream& os) {
  write_be32(os, kMagicLabels);
  write_be32(os, static_cast<std::uint32_t>(labels.size()));
  for (std::int64_t l : labels) {
    DFC_REQUIRE(l >= 0 && l <= 255, "IDX labels must fit one byte");
    const auto byte = static_cast<unsigned char>(l);
    os.write(reinterpret_cast<const char*>(&byte), 1);
  }
  DFC_REQUIRE(os.good(), "IDX stream write failure");
}

}  // namespace dfc::data
