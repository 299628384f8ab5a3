/**
 * @file
 * A minimal C++20 coroutine generator.
 *
 * Workload threads are written as ordinary sequential algorithms that
 * co_yield a MemRef for every shared-memory access; the simulation
 * kernel pulls from one generator per simulated processor. This keeps
 * the benchmark kernels readable (they look like the original SPLASH-2
 * loops) without materialising full traces in memory.
 */

#ifndef VCOMA_SIM_GENERATOR_HH
#define VCOMA_SIM_GENERATOR_HH

#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

namespace vcoma
{

/** Lazily-evaluated stream of T values produced by a coroutine. */
template <typename T>
class Generator
{
  public:
    struct promise_type
    {
        /**
         * The value of the last co_yield: the yielded object itself
         * (a temporary in the coroutine frame, or the yielded lvalue),
         * which lives until the coroutine resumes. Pointing at it
         * saves copying every value through the frame.
         */
        const T *current = nullptr;
        std::exception_ptr exception;

        Generator
        get_return_object()
        {
            return Generator{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }

        std::suspend_always
        yield_value(const T &value) noexcept
        {
            current = std::addressof(value);
            return {};
        }

        void return_void() noexcept {}
        void unhandled_exception() { exception = std::current_exception(); }
    };

    Generator() = default;

    explicit Generator(std::coroutine_handle<promise_type> h) : handle_(h) {}

    Generator(Generator &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {
    }

    Generator &
    operator=(Generator &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    ~Generator() { destroy(); }

    /**
     * Advance the coroutine and return the next value, or nullopt if
     * the stream is exhausted. Rethrows exceptions escaping the
     * coroutine body.
     */
    std::optional<T>
    next()
    {
        if (!handle_ || handle_.done())
            return std::nullopt;
        handle_.resume();
        if (handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
        if (handle_.done())
            return std::nullopt;
        return *handle_.promise().current;
    }

    /**
     * Advance the coroutine and return a pointer to the next value,
     * or nullptr when the stream is exhausted. The pointee is the
     * yielded object and is gone after the following advance; the
     * per-reference simulation loop uses this to avoid copying each
     * event.
     */
    const T *
    nextPtr()
    {
        if (!handle_ || handle_.done())
            return nullptr;
        handle_.resume();
        if (handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
        if (handle_.done())
            return nullptr;
        return handle_.promise().current;
    }

    /** True if the coroutine can still produce values. */
    bool alive() const { return handle_ && !handle_.done(); }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_;
};

} // namespace vcoma

#endif // VCOMA_SIM_GENERATOR_HH
