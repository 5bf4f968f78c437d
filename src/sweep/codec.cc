#include "sweep/codec.hh"

#include <algorithm>
#include <charconv>
#include <type_traits>

#include "sim/fsio.hh"

namespace mbus {
namespace sweep {

namespace {

const char *kHex = "0123456789ABCDEF";

bool
tokenSafe(char c)
{
    return c > 0x20 && c < 0x7f && c != '%' && c != '|';
}

void
appendEscaped(std::string &out, std::string_view raw)
{
    for (char c : raw) {
        if (tokenSafe(c)) {
            out += c;
        } else {
            unsigned char u = static_cast<unsigned char>(c);
            out += '%';
            out += kHex[u >> 4];
            out += kHex[u & 0xf];
        }
    }
}

/** Visitor that appends each field as one token of the '|' framing. */
class Writer
{
  public:
    explicit Writer(const char *tag) : out_(tag) {}

    template <class T>
    void
    operator()(T &v)
    {
        if constexpr (std::is_same_v<T, std::string>) {
            out_ += '|';
            appendEscaped(out_, v);
        } else if constexpr (std::is_class_v<T>) {
            fields(*this, v); // A sub-record: its fields, inline.
        } else if constexpr (std::is_same_v<T, double>) {
            char buf[sim::kDoubleChars];
            out_ += '|';
            out_.append(buf, sim::formatDouble(v, buf));
        } else if constexpr (std::is_same_v<T, bool>) {
            out_ += v ? "|1" : "|0";
        } else if constexpr (std::is_enum_v<T>) {
            appendInt(static_cast<unsigned>(v));
        } else {
            appendInt(v);
        }
    }

    template <class T>
    void
    operator()(Capped<T> v)
    {
        std::uint64_t n = v.items.size();
        (*this)(n);
        for (T &item : v.items)
            (*this)(item);
    }

    std::string take() { return std::move(out_); }

  private:
    template <class T>
    void
    appendInt(T v)
    {
        char buf[24];
        out_ += '|';
        out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    }

    std::string out_;
};

/**
 * Visitor that parses each field from the next token. Any token that
 * is missing, malformed, or out of its field's range poisons done().
 */
class Reader
{
  public:
    explicit Reader(const std::string &bytes)
        : p_(bytes.data()), end_(bytes.data() + bytes.size())
    {
    }

    template <class T>
    void
    operator()(T &v)
    {
        if constexpr (std::is_same_v<T, std::string>) {
            v = unescapeToken(next());
        } else if constexpr (std::is_class_v<T>) {
            fields(*this, v);
        } else if constexpr (std::is_same_v<T, bool>) {
            std::uint8_t b = 0;
            (*this)(b);
            ok_ = ok_ && b <= 1;
            v = b != 0;
        } else if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> u{};
            (*this)(u);
            v = static_cast<T>(u);
        } else {
            // Numbers: from_chars rejects a sign on an unsigned field
            // and any value outside the field's type.
            std::string_view t = next();
            auto r = std::from_chars(t.data(), t.data() + t.size(), v);
            ok_ = ok_ && r.ec == std::errc() && r.ptr == t.data() + t.size();
        }
    }

    template <class T>
    void
    operator()(Capped<T> v)
    {
        std::uint64_t n = 0;
        (*this)(n);
        if (!ok_ || n > v.cap) {
            ok_ = false;
            return;
        }
        v.items.resize(n);
        for (T &item : v.items)
            (*this)(item);
    }

    /** Every token parsed, and none is left over. */
    bool done() const { return ok_ && !more_; }

  private:
    std::string_view
    next()
    {
        if (!more_) {
            ok_ = false;
            return {};
        }
        const char *bar = std::find(p_, end_, '|');
        std::string_view t(p_, static_cast<std::size_t>(bar - p_));
        more_ = bar != end_;
        p_ = more_ ? bar + 1 : end_;
        return t;
    }

    const char *p_;
    const char *end_;
    bool more_ = true;
    bool ok_ = true;
};

template <class R>
std::string
encode(const char *tag, const R &rec)
{
    Writer w(tag);
    w(const_cast<R &>(rec)); // The writer only reads.
    return w.take();
}

/** Decode @p bytes behind @p tag into @p out when they parse and
 *  @p valid accepts the record; otherwise leave @p out untouched. */
template <class R, class Valid>
bool
decode(const std::string &bytes, const char *tag, R &out, Valid valid)
{
    Reader r(bytes);
    std::string got;
    r(got);
    if (got != tag)
        return false;
    R rec;
    r(rec);
    if (!r.done() || !valid(rec))
        return false;
    out = std::move(rec);
    return true;
}

} // namespace

std::string
escapeToken(std::string_view raw)
{
    std::string out;
    out.reserve(raw.size());
    appendEscaped(out, raw);
    return out;
}

std::string
unescapeToken(std::string_view token)
{
    auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'A' && c <= 'F')
            return 10 + (c - 'A');
        if (c >= 'a' && c <= 'f')
            return 10 + (c - 'a');
        return -1;
    };
    std::string out;
    out.reserve(token.size());
    for (std::size_t i = 0; i < token.size(); ++i) {
        if (token[i] == '%' && i + 2 < token.size() &&
            hex(token[i + 1]) >= 0 && hex(token[i + 2]) >= 0) {
            out += static_cast<char>(16 * hex(token[i + 1]) +
                                     hex(token[i + 2]));
            i += 2;
        } else {
            out += token[i];
        }
    }
    return out;
}

std::string
encodeSpec(const ScenarioSpec &spec)
{
    return encode("spec1", spec);
}

bool
decodeSpec(const std::string &bytes, ScenarioSpec &out)
{
    // A spec asks for Auto or Edge; Message is only ever an outcome.
    return decode(bytes, "spec1", out, [](const ScenarioSpec &s) {
        return s.fidelity == Fidelity::Auto || s.fidelity == Fidelity::Edge;
    });
}

std::string
encodeStats(const ScenarioStats &stats)
{
    return encode("stat1", stats);
}

bool
decodeStats(const std::string &bytes, ScenarioStats &out)
{
    // A record names the model that ran: Edge or Message, never Auto.
    return decode(bytes, "stat1", out, [](const ScenarioStats &s) {
        return s.fidelity == Fidelity::Edge ||
               s.fidelity == Fidelity::Message;
    });
}

} // namespace sweep
} // namespace mbus
